(* The dynamic deopt oracle: a bisimulation check between compiled code
   and the interpreter at every deoptimization.

   The premise of the paper (§2, §5.5) is that the frame state attached
   to a Deopt terminator reconstructs the *exact* interpreter state. The
   oracle validates that claim dynamically, in the spirit of the
   bisimulation framing of "Correctness of Speculative Optimizations with
   Dynamic Deoptimization": when compiled code enters, we snapshot its
   entry state (arguments, or the OSR seed locals, plus the static
   fields), cloning every reachable object; when it deopts, we replay a
   *shadow interpreter* over the clones from the same entry point and
   stop it at the exact program point the Deopt replaced: the
   branch-edge traversal a pruned branch recorded ({!Graph.deopt_edge}),
   or the first virtual dispatch at a speculative-inline guard site
   whose receiver misses the expected class ({!Graph.deopt_guard}) —
   each identified together with the inline call path from the
   frame-state chain. The rematerialized state must then be isomorphic
   to the shadow's live state:

   - locals of the innermost frame (slots the builder cleared to undef as
     dead are unobservable and skipped),
   - the operand stack,
   - lock depths of every object reached,
   - heap shape: a bijection over object identities, seeded with the
     entry-time clone map, under which classes, field values, array
     lengths and element values agree — addresses are never compared,
   - the static fields (compiled stores to globals must not be lost).

   The shadow runs in a completely separate environment — fresh heap,
   stats, and profile, cloned globals, no instruments — so enabling the
   oracle perturbs no deterministic counter of the real execution and
   shows in no trace or profile of it. *)

open Pea_bytecode
open Pea_ir
open Pea_rt
open Value

type divergence = {
  dv_method : string; (* innermost deopt frame's method *)
  dv_bci : int; (* innermost deopt bci *)
  dv_reason : string;
}

exception Divergence of divergence

let string_of_divergence d =
  Printf.sprintf "deopt oracle divergence at %s:%d: %s" d.dv_method d.dv_bci d.dv_reason

(* Identity of a heap cell, for clone maps and the isomorphism bijection.
   Objects and arrays draw ids from the same heap counter, but keeping
   the kinds apart costs nothing. *)
type key =
  | K_obj of int
  | K_arr of int

type entry =
  | E_call of Classfile.rt_method * Value.value list
  | E_osr of Classfile.rt_method * int * Value.value array (* header, seed locals *)

type t = {
  sn_program : Link.program; (* to build the shadow profile *)
  sn_entry : entry; (* entry point, values already cloned *)
  sn_globals : Value.value array; (* cloned statics *)
  sn_seed : (key * key) list; (* real id -> clone id, taken at entry *)
}

(* ------------------------------------------------------------------ *)
(* Entry-time snapshot                                                 *)
(* ------------------------------------------------------------------ *)

(* Deep-clone a value graph. Clones get negative ids so they can never
   collide with ids the shadow heap allocates during replay. *)
type cloner = {
  memo : (key, Value.value) Hashtbl.t;
  mutable next : int;
  mutable pairs : (key * key) list;
}

let new_cloner () = { memo = Hashtbl.create 16; next = -1; pairs = [] }

let rec clone (c : cloner) (v : Value.value) : Value.value =
  match v with
  | Vint _ | Vbool _ | Vnull -> v
  | Vobj o -> (
      match Hashtbl.find_opt c.memo (K_obj o.o_id) with
      | Some v' -> v'
      | None ->
          let id = c.next in
          c.next <- id - 1;
          let o' =
            (* clones live on the shadow heap: region 0 regardless of the
               original's stack region *)
            { o_id = id; o_cls = o.o_cls; o_fields = Array.map (fun _ -> Vnull) o.o_fields;
              o_lock = o.o_lock; o_region = 0 }
          in
          Hashtbl.replace c.memo (K_obj o.o_id) (Vobj o');
          c.pairs <- (K_obj o.o_id, K_obj id) :: c.pairs;
          Array.iteri (fun i f -> o'.o_fields.(i) <- clone c f) o.o_fields;
          Vobj o')
  | Varr a -> (
      match Hashtbl.find_opt c.memo (K_arr a.a_id) with
      | Some v' -> v'
      | None ->
          let id = c.next in
          c.next <- id - 1;
          let a' =
            { a_id = id; a_elem = a.a_elem; a_elems = Array.map (fun _ -> Vnull) a.a_elems;
              a_lock = a.a_lock; a_region = 0 }
          in
          Hashtbl.replace c.memo (K_arr a.a_id) (Varr a');
          c.pairs <- (K_arr a.a_id, K_arr id) :: c.pairs;
          Array.iteri (fun i e -> a'.a_elems.(i) <- clone c e) a.a_elems;
          Varr a')

let snapshot_globals c (env : Interp.env) = Array.map (clone c) env.Interp.globals

let snapshot_call ~(program : Link.program) (env : Interp.env) (m : Classfile.rt_method)
    (args : Value.value list) : t =
  let c = new_cloner () in
  let globals = snapshot_globals c env in
  let args = List.map (clone c) args in
  { sn_program = program; sn_entry = E_call (m, args); sn_globals = globals; sn_seed = c.pairs }

let snapshot_osr ~(program : Link.program) (env : Interp.env) (m : Classfile.rt_method)
    ~(header : int) ~(locals : Value.value array) : t =
  let c = new_cloner () in
  let globals = snapshot_globals c env in
  let locals = Array.map (clone c) locals in
  { sn_program = program; sn_entry = E_osr (m, header, locals); sn_globals = globals; sn_seed = c.pairs }

(* ------------------------------------------------------------------ *)
(* Shadow replay                                                       *)
(* ------------------------------------------------------------------ *)

(* Raised by a hook when the shadow reaches the deopt point: carries the
   live locals and operand stack at that point. *)
exception Stop of Value.value array * Value.value list

(* Where the shadow must stop: the provenance the Deopt carries. *)
type stop_at =
  | At_edge of Graph.deopt_edge (* a pruned-branch traversal *)
  | At_guard of Graph.deopt_guard (* a receiver-guard miss at a dispatch *)

(* The frame-state chain, innermost first. *)
let chain fs =
  let rec go fs = fs :: (match fs.Frame_state.fs_outer with None -> [] | Some o -> go o) in
  go fs

(* The inline call path above the root frame, as the shadow's tracked
   call stack must look when it traverses the deopt edge: bottom-first
   [(callee mth_id, call bci in the caller); ...]. An outer frame resumes
   at [fs_bci = call bci + 1] (the callee's return value is pushed on
   resume), so the call site is [fs_bci - 1]. *)
let expected_path frames =
  let outer_first = List.rev frames in
  let rec pairs = function
    | caller :: (callee :: _ as rest) ->
        (callee.Frame_state.fs_method.Classfile.mth_id, caller.Frame_state.fs_bci - 1)
        :: pairs rest
    | [ _ ] | [] -> []
  in
  pairs outer_first

let run_shadow (t : t) (stop : stop_at) ~(path : (int * int) list) =
  (* tracked interpreter call stack, top first *)
  let stack = ref [] in
  let h_branch bm ~bci ~jump ~locals ~stack:ostack =
    match stop with
    | At_guard _ -> ()
    | At_edge edge ->
        if
          bm.Classfile.mth_id = edge.Graph.de_method.Classfile.mth_id
          && bci = edge.Graph.de_src && jump = edge.Graph.de_jump
          && List.rev !stack = path
        then raise (Stop (locals, ostack))
  in
  let h_virtual_call ~caller ~bci ~receiver ~locals ~stack:ostack =
    match stop with
    | At_edge _ -> ()
    | At_guard gd ->
        (* the guard deopts on the first dispatch at its site whose
           receiver is not exactly the speculated class; the pre-pop
           operand stack is the pre-call state the deopt resumes to *)
        let misses =
          match receiver with
          | Vobj o -> o.o_cls.Classfile.cls_id <> gd.Graph.dg_expected.Classfile.cls_id
          | _ -> true
        in
        if
          misses
          && caller.Classfile.mth_id = gd.Graph.dg_method.Classfile.mth_id
          && bci = gd.Graph.dg_bci
          && List.rev !stack = path
        then raise (Stop (locals, ostack))
  in
  let hooks =
    {
      Interp.h_branch;
      h_call = (fun ~caller:_ ~bci ~callee -> stack := (callee.Classfile.mth_id, bci) :: !stack);
      h_return = (fun ~caller:_ ~bci:_ -> match !stack with _ :: r -> stack := r | [] -> ());
      h_virtual_call;
    }
  in
  (* no instruments: what checks a deopt is seen by nothing that
     watches the run it checks *)
  let env = Interp.make_env ~globals:t.sn_globals ~hooks t.sn_program in
  match t.sn_entry with
  | E_call (m, args) -> (
      match Interp.run env m args with
      | _ -> `Finished
      | exception Stop (l, s) -> `Stopped (l, s)
      | exception Interp.Mj_throw _ -> `Threw
      | exception Interp.Trap msg -> `Trapped msg)
  | E_osr (m, header, locals) -> (
      match Interp.resume env m ~locals ~stack:[] ~bci:header with
      | _ -> `Finished
      | exception Stop (l, s) -> `Stopped (l, s)
      | exception Interp.Mj_throw _ -> `Threw
      | exception Interp.Trap msg -> `Trapped msg)

(* ------------------------------------------------------------------ *)
(* State comparison                                                    *)
(* ------------------------------------------------------------------ *)

let check (t : t) ~(env : Interp.env) ~(deopt : Graph.deopt)
    ~(resolve : Frame_state.fs_value -> Value.value) : unit =
  let stop =
    match (deopt.Graph.d_edge, deopt.Graph.d_guard) with
    | Some edge, _ -> Some (At_edge edge)
    | None, Some gd -> Some (At_guard gd)
    | None, None -> None
  in
  match stop with
  | None -> () (* no provenance: the replay cannot locate its stop point *)
  | Some stop ->
      let frames = chain deopt.Graph.d_state in
      let inner = List.hd frames in
      let meth = Classfile.qualified_name inner.Frame_state.fs_method in
      let bci = inner.Frame_state.fs_bci in
      let diverge fmt =
        Format.kasprintf
          (fun reason -> raise (Divergence { dv_method = meth; dv_bci = bci; dv_reason = reason }))
          fmt
      in
      let shadow_locals, shadow_stack =
        match run_shadow t stop ~path:(expected_path frames) with
        | `Stopped (l, s) -> (l, s)
        | `Finished -> diverge "shadow interpreter finished without reaching the deopt point"
        | `Threw -> diverge "shadow interpreter threw before reaching the deopt point"
        | `Trapped msg -> diverge "shadow interpreter trapped: %s" msg
      in
      (* isomorphism bijection over heap identities, seeded with the
         entry-time clone map *)
      let fwd : (key, key) Hashtbl.t = Hashtbl.create 16 in
      let bwd : (key, key) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (rk, sk) ->
          Hashtbl.replace fwd rk sk;
          Hashtbl.replace bwd sk rk)
        t.sn_seed;
      let visited : (key, unit) Hashtbl.t = Hashtbl.create 16 in
      let pair what rk sk =
        (match (Hashtbl.find_opt fwd rk, Hashtbl.find_opt bwd sk) with
        | Some sk', _ when sk' <> sk -> diverge "%s: object identity differs from the shadow" what
        | _, Some rk' when rk' <> rk ->
            diverge "%s: two distinct objects alias one shadow object" what
        | _ ->
            Hashtbl.replace fwd rk sk;
            Hashtbl.replace bwd sk rk);
        if Hashtbl.mem visited rk then false
        else begin
          Hashtbl.replace visited rk ();
          true
        end
      in
      let rec cmp what (a : Value.value) (b : Value.value) =
        match (a, b) with
        | Vint x, Vint y -> if x <> y then diverge "%s: %d, shadow has %d" what x y
        | Vbool x, Vbool y -> if x <> y then diverge "%s: %b, shadow has %b" what x y
        | Vnull, Vnull -> ()
        | Vobj r, Vobj s ->
            if pair what (K_obj r.o_id) (K_obj s.o_id) then begin
              if r.o_cls.Classfile.cls_id <> s.o_cls.Classfile.cls_id then
                diverge "%s: class %s, shadow has %s" what r.o_cls.Classfile.cls_name
                  s.o_cls.Classfile.cls_name;
              if r.o_lock <> s.o_lock then
                diverge "%s: lock depth %d, shadow has %d" what r.o_lock s.o_lock;
              Array.iteri
                (fun i f -> cmp (Printf.sprintf "%s.field%d" what i) f s.o_fields.(i))
                r.o_fields
            end
        | Varr r, Varr s ->
            if pair what (K_arr r.a_id) (K_arr s.a_id) then begin
              if Array.length r.a_elems <> Array.length s.a_elems then
                diverge "%s: array length %d, shadow has %d" what (Array.length r.a_elems)
                  (Array.length s.a_elems);
              if r.a_lock <> s.a_lock then
                diverge "%s: lock depth %d, shadow has %d" what r.a_lock s.a_lock;
              Array.iteri
                (fun i e -> cmp (Printf.sprintf "%s[%d]" what i) e s.a_elems.(i))
                r.a_elems
            end
        | _ -> diverge "%s: %s, shadow has %s" what (string_of_value a) (string_of_value b)
      in
      (* locals of the innermost frame; slots the builder cleared as dead
         carry [Cundef] and are unobservable on resume *)
      Array.iteri
        (fun i fv ->
          match fv with
          | Frame_state.F_const Frame_state.Cundef -> ()
          | _ ->
              if i >= Array.length shadow_locals then
                diverge "local %d: missing from the shadow frame" i
              else cmp (Printf.sprintf "local %d" i) (resolve fv) shadow_locals.(i))
        inner.Frame_state.fs_locals;
      (* operand stack *)
      let real_stack = List.map resolve inner.Frame_state.fs_stack in
      if List.length real_stack <> List.length shadow_stack then
        diverge "operand stack depth %d, shadow has %d" (List.length real_stack)
          (List.length shadow_stack);
      List.iteri
        (fun i (a, b) -> cmp (Printf.sprintf "stack[%d]" i) a b)
        (List.combine real_stack shadow_stack);
      (* every lock the innermost frame holds must be a reference that is
         actually locked after rematerialization *)
      List.iteri
        (fun i lv ->
          match resolve lv with
          | Vobj o -> if o.o_lock <= 0 then diverge "lock %d: rematerialized object is unlocked" i
          | Varr a -> if a.a_lock <= 0 then diverge "lock %d: rematerialized array is unlocked" i
          | v -> diverge "lock %d: non-reference %s" i (string_of_value v))
        inner.Frame_state.fs_locks;
      (* statics: compiled stores to globals must not be lost *)
      Array.iteri
        (fun i g -> cmp (Printf.sprintf "static %d" i) g t.sn_globals.(i))
        env.Interp.globals
