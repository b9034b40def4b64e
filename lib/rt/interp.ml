(* The bytecode interpreter: the reference semantics every compiled
   tier is checked against, the frames a deopt resumes in, and the
   source of the JIT's profiles.

   What watches it comes in its environment ([env.instruments]): the
   sampling profiler is resolved once per frame and polled at every
   dispatch (one load and compare when there is none), and each frame is
   bracketed on its shadow stack. The heap profiler is handed to the
   environment's heap ([make_env]), which records every allocation at
   the site it is given. An environment without instruments — the deopt
   oracle's shadow replay, a server's tenant — is seen by none, so no
   per-dispatch test needs to ask whose environment it is. *)

open Pea_bytecode
open Classfile
open Value
module Pcpu = Pea_obs.Profile_cpu
module Instruments = Pea_obs.Instruments

exception Trap of string

(* An in-flight MJ exception (the [throw] statement). Crosses OCaml frames
   as it unwinds interpreter and compiled frames until a handler range
   matches. *)
exception Mj_throw of Value.value

(* What the VM decided when the interpreter offered it a hot back edge:
   either keep interpreting, or the rest of the method already ran in
   OSR-compiled code and this is its result. *)
type osr_result =
  | No_osr
  | Osr_return of Value.value option

(* Observation hooks for shadow execution (the deopt oracle): [h_branch]
   fires at every conditional branch after the condition is popped, with
   the frame state at that point; [h_call]/[h_return] bracket every invoke
   so the observer can track the interpreter call path. [h_return] also
   fires when the callee unwinds with an MJ exception. [h_virtual_call]
   fires at every virtual dispatch before the arguments are popped, with
   the pre-call frame state — the state a receiver-guard deopt resumes
   to — so the oracle can stop a shadow replay at a failed guard. *)
and hooks = {
  h_branch :
    rt_method -> bci:int -> jump:bool -> locals:Value.value array -> stack:Value.value list -> unit;
  h_call : caller:rt_method -> bci:int -> callee:rt_method -> unit;
  h_return : caller:rt_method -> bci:int -> unit;
  h_virtual_call :
    caller:rt_method ->
    bci:int ->
    receiver:Value.value ->
    locals:Value.value array ->
    stack:Value.value list ->
    unit;
}

and env = {
  heap : Heap.t;
  stats : Stats.t;
  profile : Profile.t;
  globals : Value.value array;
  on_invoke : rt_method -> Value.value list -> Value.value option;
  on_print : Value.value -> unit;
  on_back_edge : rt_method -> header:int -> locals:Value.value array -> osr_result;
  hooks : hooks option; (* [None] everywhere except oracle shadow replays *)
  instruments : Instruments.t;
}

let trap fmt = Format.kasprintf (fun m -> raise (Trap m)) fmt

let as_int = function Vint n -> n | v -> trap "expected int, found %s" (string_of_value v)

let as_bool = function Vbool b -> b | v -> trap "expected boolean, found %s" (string_of_value v)

let class_of_value = function
  | Vobj o -> Some o.o_cls
  | Varr _ | Vnull | Vint _ | Vbool _ -> None

let value_instanceof v (cls : rt_class) =
  match v with
  | Vnull -> false
  | Vobj o -> is_subclass ~cls:o.o_cls ~anc:cls
  | Varr _ -> cls.cls_name = Pea_mjava.Ast.object_class
  | Vint _ | Vbool _ -> false

let dispatch_target recv (m : rt_method) =
  match class_of_value recv with
  | Some cls -> (
      match resolve_method cls m.mth_name with
      | Some target -> target
      | None -> trap "no method %s on class %s" m.mth_name cls.cls_name)
  | None -> (
      match recv with
      | Vnull -> trap "null receiver in call to %s" (qualified_name m)
      | Varr _ -> trap "cannot invoke %s on an array" m.mth_name
      | _ -> trap "bad receiver in call to %s" (qualified_name m))

(* [pop_n stack n] pops [n] values; returns them in push order (first pushed
   first) together with the rest of the stack. *)
let pop_n stack n =
  let rec loop acc stack n =
    if n = 0 then (acc, stack)
    else
      match stack with
      | v :: rest -> loop (v :: acc) rest (n - 1)
      | [] -> trap "operand stack underflow"
  in
  loop [] stack n

(* bump a counter through its storage cell ({!Stats.cell}) *)
let[@inline] bump ((counters, i) : int array * int) n = counters.(i) <- counters.(i) + n

let exec env (m : rt_method) ~locals ~stack ~bci : Value.value option =
  let code = m.mth_code in
  (* the two counters every bytecode bumps, resolved once per frame: the
     dispatch loop bumps them without a call (a dev build compiles
     [Stats] with [-opaque], so [Stats.add] would be an unknown call) *)
  let instrs = Stats.cell env.stats Stats.interpreted_instrs in
  let cycles = Stats.cell env.stats Stats.cycles in
  (* the sampling profiler every dispatch polls, resolved once *)
  let cpu = env.instruments.cpu in
  let rec dispatch_throw bci v =
    (* find the innermost handler covering [bci] whose class matches *)
    let matches (h : handler) =
      bci >= h.h_start && bci < h.h_end && value_instanceof v h.h_class
    in
    match List.find_opt matches m.mth_handlers with
    | Some h ->
        bump cycles Cost.invoke (* unwind cost *);
        step h.h_pc [ v ]
    | None -> raise (Mj_throw v)
  and back_edge header stack =
    (* a jump to [header] at or before the current pc: count it towards
       the loop's OSR counter and offer the VM a chance to continue this
       frame in compiled code. Only offered with an empty operand stack,
       so the OSR entry state is exactly the locals array. *)
    Profile.record_back_edge env.profile m ~header;
    match stack with
    | [] -> (
        match env.on_back_edge m ~header ~locals with
        | No_osr -> step header stack
        | Osr_return r -> r)
    | _ :: _ -> step header stack
  and step bci stack =
    if bci < 0 || bci >= Array.length code then trap "pc %d out of range in %s" bci (qualified_name m);
    bump instrs 1;
    bump cycles Cost.interp_dispatch;
    (* profiler safepoint: one load and compare when profiling is off *)
    (match cpu with Some p -> Pcpu.poll p bci | None -> ());
    match code.(bci) with
    | Iconst n -> step (bci + 1) (Vint n :: stack)
    | Bconst b -> step (bci + 1) (Vbool b :: stack)
    | Aconst_null -> step (bci + 1) (Vnull :: stack)
    | Load slot -> step (bci + 1) (locals.(slot) :: stack)
    | Store slot -> (
        match stack with
        | v :: rest ->
            locals.(slot) <- v;
            step (bci + 1) rest
        | [] -> trap "stack underflow at store")
    | Dup -> (
        match stack with
        | v :: _ -> step (bci + 1) (v :: stack)
        | [] -> trap "stack underflow at dup")
    | Pop -> (
        match stack with
        | _ :: rest -> step (bci + 1) rest
        | [] -> trap "stack underflow at pop")
    | Iadd | Isub | Imul | Idiv | Irem -> (
        match stack with
        | b :: a :: rest ->
            let a = as_int a and b = as_int b in
            let result =
              match code.(bci) with
              | Iadd -> a + b
              | Isub -> a - b
              | Imul -> a * b
              | Idiv -> if b = 0 then trap "division by zero" else a / b
              | Irem -> if b = 0 then trap "division by zero" else a mod b
              | _ -> assert false
            in
            step (bci + 1) (Vint result :: rest)
        | _ -> trap "stack underflow at arithmetic")
    | Ineg -> (
        match stack with
        | a :: rest -> step (bci + 1) (Vint (-as_int a) :: rest)
        | [] -> trap "stack underflow at ineg")
    | Bnot -> (
        match stack with
        | a :: rest -> step (bci + 1) (Vbool (not (as_bool a)) :: rest)
        | [] -> trap "stack underflow at bnot")
    | Icmp c -> (
        match stack with
        (* [==] and [!=] also compare two booleans, by value *)
        | Vbool b :: Vbool a :: rest when c = Ceq || c = Cne ->
            step (bci + 1) (Vbool (if c = Ceq then a = b else a <> b) :: rest)
        | b :: a :: rest ->
            let a = as_int a and b = as_int b in
            let result =
              match c with
              | Clt -> a < b
              | Cle -> a <= b
              | Cgt -> a > b
              | Cge -> a >= b
              | Ceq -> a = b
              | Cne -> a <> b
            in
            step (bci + 1) (Vbool result :: rest)
        | _ -> trap "stack underflow at icmp")
    | Acmp c -> (
        match stack with
        | b :: a :: rest ->
            let eq = equal_value a b in
            step (bci + 1) (Vbool (match c with AEq -> eq | ANe -> not eq) :: rest)
        | _ -> trap "stack underflow at acmp")
    | New cls -> step (bci + 1) (Vobj (Heap.alloc_object env.heap ~mid:m.mth_id ~bci cls) :: stack)
    | Newarray elem -> (
        match stack with
        | len :: rest -> (
            match Heap.alloc_array env.heap ~mid:m.mth_id ~bci elem (as_int len) with
            | arr -> step (bci + 1) (Varr arr :: rest)
            | exception Heap.Negative_array_size n -> trap "negative array size %d" n)
        | [] -> trap "stack underflow at newarray")
    | Arraylength -> (
        match stack with
        | Varr a :: rest -> step (bci + 1) (Vint (Array.length a.a_elems) :: rest)
        | Vnull :: _ -> trap "null dereference at arraylength"
        | _ -> trap "arraylength on a non-array")
    | Aload -> (
        bump cycles Cost.array_access;
        match stack with
        | idx :: Varr a :: rest ->
            let i = as_int idx in
            if i < 0 || i >= Array.length a.a_elems then trap "array index %d out of bounds" i;
            step (bci + 1) (a.a_elems.(i) :: rest)
        | _ :: Vnull :: _ -> trap "null dereference at array load"
        | _ -> trap "array load on a non-array")
    | Astore -> (
        bump cycles Cost.array_access;
        match stack with
        | v :: idx :: Varr a :: rest ->
            let i = as_int idx in
            if i < 0 || i >= Array.length a.a_elems then trap "array index %d out of bounds" i;
            a.a_elems.(i) <- v;
            step (bci + 1) rest
        | _ :: _ :: Vnull :: _ -> trap "null dereference at array store"
        | _ -> trap "array store on a non-array")
    | Getfield f -> (
        bump cycles Cost.field_access;
        match stack with
        | Vobj o :: rest -> step (bci + 1) (o.o_fields.(f.fld_offset) :: rest)
        | Vnull :: _ -> trap "null dereference reading %s.%s" f.fld_owner f.fld_name
        | _ -> trap "getfield on a non-object")
    | Putfield f -> (
        bump cycles Cost.field_access;
        match stack with
        | v :: Vobj o :: rest ->
            o.o_fields.(f.fld_offset) <- v;
            step (bci + 1) rest
        | _ :: Vnull :: _ -> trap "null dereference writing %s.%s" f.fld_owner f.fld_name
        | _ -> trap "putfield on a non-object")
    | Getstatic f ->
        bump cycles Cost.static_access;
        step (bci + 1) (env.globals.(f.sf_index) :: stack)
    | Putstatic f -> (
        bump cycles Cost.static_access;
        match stack with
        | v :: rest ->
            env.globals.(f.sf_index) <- v;
            step (bci + 1) rest
        | [] -> trap "stack underflow at putstatic")
    | Invokevirtual callee -> (
        bump cycles Cost.invoke;
        let n = arity callee in
        let args, rest = pop_n stack n in
        match args with
        | recv :: _ -> (
            (match env.hooks with
            | Some h -> h.h_virtual_call ~caller:m ~bci ~receiver:recv ~locals ~stack
            | None -> ());
            (match recv with
            | Vobj o -> Profile.record_receiver env.profile m ~bci o.o_cls
            | _ -> ());
            let target = dispatch_target recv callee in
            (match env.hooks with
            | Some h -> h.h_call ~caller:m ~bci ~callee:target
            | None -> ());
            match env.on_invoke target args with
            | result ->
                (match env.hooks with Some h -> h.h_return ~caller:m ~bci | None -> ());
                let stack = match result with Some v -> v :: rest | None -> rest in
                step (bci + 1) stack
            | exception Mj_throw v ->
                (match env.hooks with Some h -> h.h_return ~caller:m ~bci | None -> ());
                dispatch_throw bci v)
        | [] -> trap "missing receiver")
    | Invokestatic callee -> (
        bump cycles Cost.invoke;
        let args, rest = pop_n stack (arity callee) in
        (match env.hooks with Some h -> h.h_call ~caller:m ~bci ~callee | None -> ());
        match env.on_invoke callee args with
        | result ->
            (match env.hooks with Some h -> h.h_return ~caller:m ~bci | None -> ());
            let stack = match result with Some v -> v :: rest | None -> rest in
            step (bci + 1) stack
        | exception Mj_throw v ->
            (match env.hooks with Some h -> h.h_return ~caller:m ~bci | None -> ());
            dispatch_throw bci v)
    | Invokespecial ctor -> (
        bump cycles Cost.invoke;
        let args, rest = pop_n stack (arity ctor) in
        match args with
        | Vnull :: _ -> trap "null receiver in constructor call"
        | _ :: _ -> (
            (match env.hooks with Some h -> h.h_call ~caller:m ~bci ~callee:ctor | None -> ());
            match env.on_invoke ctor args with
            | _ ->
                (match env.hooks with Some h -> h.h_return ~caller:m ~bci | None -> ());
                step (bci + 1) rest
            | exception Mj_throw v ->
                (match env.hooks with Some h -> h.h_return ~caller:m ~bci | None -> ());
                dispatch_throw bci v)
        | [] -> trap "missing receiver in constructor call")
    | Monitorenter -> (
        match stack with
        | Vnull :: _ -> trap "monitorenter on null"
        | v :: rest -> (
            match Heap.monitor_enter env.heap v with
            | () -> step (bci + 1) rest
            | exception Heap.Unbalanced_monitor msg -> trap "%s" msg)
        | [] -> trap "stack underflow at monitorenter")
    | Monitorexit -> (
        match stack with
        | Vnull :: _ -> trap "monitorexit on null"
        | v :: rest -> (
            match Heap.monitor_exit env.heap v with
            | () -> step (bci + 1) rest
            | exception Heap.Unbalanced_monitor msg -> trap "%s" msg)
        | [] -> trap "stack underflow at monitorexit")
    | Goto target ->
        if target <= bci then back_edge target stack else step target stack
    | If_true target -> (
        match stack with
        | v :: rest ->
            let taken = as_bool v in
            Profile.record_branch env.profile m ~bci ~taken;
            (match env.hooks with
            | Some h -> h.h_branch m ~bci ~jump:taken ~locals ~stack:rest
            | None -> ());
            if taken then if target <= bci then back_edge target rest else step target rest
            else step (bci + 1) rest
        | [] -> trap "stack underflow at if_true")
    | If_false target -> (
        match stack with
        | v :: rest ->
            let taken = not (as_bool v) in
            Profile.record_branch env.profile m ~bci ~taken;
            (match env.hooks with
            | Some h -> h.h_branch m ~bci ~jump:taken ~locals ~stack:rest
            | None -> ());
            if taken then if target <= bci then back_edge target rest else step target rest
            else step (bci + 1) rest
        | [] -> trap "stack underflow at if_false")
    | Instanceof cls -> (
        match stack with
        | v :: rest -> step (bci + 1) (Vbool (value_instanceof v cls) :: rest)
        | [] -> trap "stack underflow at instanceof")
    | Checkcast cls -> (
        match stack with
        | Vnull :: _ -> step (bci + 1) stack
        | v :: _ ->
            if value_instanceof v cls then step (bci + 1) stack
            else trap "cannot cast %s to %s" (string_of_value v) cls.cls_name
        | [] -> trap "stack underflow at checkcast")
    | Athrow -> (
        match stack with
        | Vnull :: _ -> trap "throw of null"
        | v :: _ -> dispatch_throw bci v
        | [] -> trap "stack underflow at athrow")
    | Return_void -> None
    | Return_val -> (
        match stack with
        | v :: _ -> Some v
        | [] -> trap "stack underflow at return")
    | Print -> (
        match stack with
        | v :: rest ->
            env.on_print v;
            step (bci + 1) rest
        | [] -> trap "stack underflow at print")
  in
  step bci stack

(* Bracket an interpreter frame on the profiler shadow stack: push at
   entry, truncate back on every exit path (return, MJ throw, trap). The
   profiling-off path is the bare [exec] call. *)
let exec_profiled env m ~locals ~stack ~bci =
  match env.instruments.cpu with
  | None -> exec env m ~locals ~stack ~bci
  | Some p -> (
      let d = Pcpu.depth p in
      Pcpu.push p m.mth_id Pcpu.T_interp;
      match exec env m ~locals ~stack ~bci with
      | r ->
          Pcpu.truncate p d;
          r
      | exception e ->
          Pcpu.truncate p d;
          raise e)

(* [args] into [locals] from slot [i]; a top-level function, so a call
   allocates no closure for it *)
let rec store_args locals i = function
  | [] -> ()
  | v :: vs ->
      locals.(i) <- v;
      store_args locals (i + 1) vs

let run env (m : rt_method) args =
  Profile.record_invocation env.profile m;
  Stats.incr env.stats Stats.invocations;
  let locals = Array.make (max m.mth_max_locals (List.length args)) Vnull in
  store_args locals 0 args;
  exec_profiled env m ~locals ~stack:[] ~bci:0

let resume env m ~locals ~stack ~bci = exec_profiled env m ~locals ~stack ~bci

let make_env ?(stats = Stats.create ()) ?globals ?(on_print = ignore) ?hooks
    ?(instruments = Instruments.none) (program : Link.program) =
  let globals =
    match globals with
    | Some g -> g
    | None ->
        let g = Array.make (max program.Link.n_statics 1) Vnull in
        List.iter (fun sf -> g.(sf.sf_index) <- Value.default_value sf.sf_ty) program.Link.statics;
        g
  in
  let rec env =
    {
      heap = Heap.create ?ledger:instruments.heap stats;
      stats;
      profile = Profile.create program;
      globals;
      on_invoke = (fun m args -> run env m args);
      on_print;
      on_back_edge = (fun _ ~header:_ ~locals:_ -> No_osr);
      hooks;
      instruments;
    }
  in
  env
