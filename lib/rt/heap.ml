(* Allocation front end: every object and array the VM creates goes through
   here so that allocation counts and byte sizes are accounted exactly
   once, whether the allocation comes from interpreted code, compiled code,
   or deoptimization-time rematerialization. The heap is also the one
   feeder of the allocation-site ledger (Pea_obs.Profile_heap) it was
   created with: each function records its object at the bytecode site it
   is given, under the kind the function implies, so no caller records or
   recomputes a class name or a byte size. *)

open Pea_bytecode
module Pheap = Pea_obs.Profile_heap

type t = {
  stats : Stats.t;
  ledger : Pheap.t option;
  mutable next_id : int;
  mutable region_depth : int; (* active per-frame stack regions, 0 = none *)
  mutable regions : Value.value list list; (* innermost frame region first *)
}

let create ?ledger stats = { stats; ledger; next_id = 1; region_depth = 0; regions = [] }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let charge t bytes =
  Stats.incr t.stats Stats.allocations;
  Stats.add t.stats Stats.allocated_bytes bytes;
  Stats.add t.stats Stats.cycles (Cost.alloc_cost bytes)

(* The ledger's records: one load and compare when there is no ledger,
   and the class name and size are computed only when there is one. *)
let record_object t ~mid ~bci kind (cls : Classfile.rt_class) =
  match t.ledger with
  | None -> ()
  | Some p ->
      Pheap.record p ~mid ~bci ~cls:cls.cls_name ~kind ~bytes:(Value.object_bytes cls)

let record_array t ~mid ~bci kind elem len =
  match t.ledger with
  | None -> ()
  | Some p ->
      Pheap.record p ~mid ~bci
        ~cls:(Pea_mjava.Ast.string_of_ty elem ^ "[]")
        ~kind ~bytes:(Value.array_bytes elem len)

let new_object t (cls : Classfile.rt_class) : Value.obj =
  {
    o_id = fresh_id t;
    o_cls = cls;
    o_fields =
      Array.map (fun (f : Classfile.rt_field) -> Value.default_value f.fld_ty) cls.cls_instance_fields;
    o_lock = 0;
    o_region = 0;
  }

let new_array t elem len : Value.arr =
  {
    a_id = fresh_id t;
    a_elem = elem;
    a_elems = Array.make len (Value.default_value elem);
    a_lock = 0;
    a_region = 0;
  }

(* A charged allocation: ordinary ([K_alloc]) or rematerialized at a
   deopt ([K_remat]). *)
let charged_object t ~mid ~bci kind cls =
  charge t (Value.object_bytes cls);
  record_object t ~mid ~bci kind cls;
  new_object t cls

exception Negative_array_size of int

let charged_array t ~mid ~bci kind elem len =
  if len < 0 then raise (Negative_array_size len);
  charge t (Value.array_bytes elem len);
  record_array t ~mid ~bci kind elem len;
  new_array t elem len

let alloc_object t ~mid ~bci cls = charged_object t ~mid ~bci Pheap.K_alloc cls

let alloc_array t ~mid ~bci elem len = charged_array t ~mid ~bci Pheap.K_alloc elem len

let remat_object t ~mid ~bci cls = charged_object t ~mid ~bci Pheap.K_remat cls

let remat_array t ~mid ~bci elem len = charged_array t ~mid ~bci Pheap.K_remat elem len

(* Scratch allocations: real objects backing a virtual object that an
   interprocedural summary lets PEA pass to a non-inlined callee. They
   never outlive the call (the summary proves the callee cannot retain
   them), so they are costed like stack frame traffic: no allocation
   count, no allocated bytes, no GC pressure. *)
let uncharged t =
  Stats.incr t.stats Stats.stack_allocs;
  Stats.add t.stats Stats.cycles Cost.stack_alloc

let alloc_object_scratch t ~mid ~bci cls =
  uncharged t;
  record_object t ~mid ~bci Pheap.K_scratch cls;
  new_object t cls

let alloc_array_scratch t ~mid ~bci elem len =
  uncharged t;
  record_array t ~mid ~bci Pheap.K_scratch elem len;
  new_array t elem len

(* ------------------------------------------------------------------ *)
(* Per-frame stack regions.                                            *)
(*                                                                     *)
(* A compiled activation that may stack-allocate pushes a region on    *)
(* entry and pops it on every exit (return, MJ throw, trap or deopt:   *)
(* the VM pops it on both its return path and its exception path).     *)
(* Frame-bounded materializations register in the innermost region and *)
(* are reclaimed in O(1) at the pop: the region's object list is       *)
(* dropped wholesale. Reclaimed objects have their fields scrubbed so  *)
(* that a dangling read — which the escape analysis is supposed to     *)
(* make impossible — fails loudly instead of silently returning stale  *)
(* data.                                                               *)
(* ------------------------------------------------------------------ *)

let push_frame t =
  t.region_depth <- t.region_depth + 1;
  t.regions <- [] :: t.regions

let scrub (v : Value.value) =
  match v with
  | Vobj o ->
      if o.o_region > 0 then begin
        o.o_region <- -1;
        Array.fill o.o_fields 0 (Array.length o.o_fields) Value.Vnull
      end
  | Varr a ->
      if a.a_region > 0 then begin
        a.a_region <- -1;
        Array.fill a.a_elems 0 (Array.length a.a_elems) Value.Vnull
      end
  | Vnull | Vint _ | Vbool _ -> ()

let pop_frame t =
  match t.regions with
  | [] -> invalid_arg "Heap.pop_frame: no active stack region"
  | [] :: rest ->
      (* the common case: the activation stack-allocated nothing *)
      t.regions <- rest;
      t.region_depth <- t.region_depth - 1
  | live :: rest ->
      t.regions <- rest;
      t.region_depth <- t.region_depth - 1;
      List.iter
        (fun v ->
          (* promoted objects left the region (marker reset to 0) and
             must survive the pop untouched *)
          let reclaim =
            match v with
            | Value.Vobj o -> o.o_region > 0
            | Value.Varr a -> a.a_region > 0
            | Value.Vnull | Value.Vint _ | Value.Vbool _ -> false
          in
          if reclaim then begin
            scrub v;
            Stats.incr t.stats Stats.stack_reclaimed
          end)
        live

let register_stack t (v : Value.value) =
  match t.regions with
  | [] -> () (* no active region: behaves like a scratch allocation *)
  | live :: rest ->
      (match v with
      | Vobj o -> o.o_region <- t.region_depth
      | Varr a -> a.a_region <- t.region_depth
      | Vnull | Vint _ | Vbool _ -> ());
      t.regions <- (v :: live) :: rest

(* Frame-bounded stack allocations: costed like scratch (no heap charge),
   but registered in the innermost region for frame-pop reclamation. *)
let alloc_object_stack t ~mid ~bci cls =
  uncharged t;
  record_object t ~mid ~bci Pheap.K_stack cls;
  let o = new_object t cls in
  register_stack t (Value.Vobj o);
  o

let alloc_array_stack t ~mid ~bci elem len =
  uncharged t;
  record_array t ~mid ~bci Pheap.K_stack elem len;
  let a = new_array t elem len in
  register_stack t (Value.Varr a);
  a

(* Deopt-time promotion: the object outlives its compiled frame after all
   (it is live in the interpreter resume state), so charge the real
   allocation the stack tier elided and move it to the heap. *)
let promote t ~mid ~bci (v : Value.value) =
  match v with
  | Vobj o when o.o_region > 0 ->
      o.o_region <- 0;
      charge t (Value.object_bytes o.o_cls);
      record_object t ~mid ~bci Pheap.K_promote o.o_cls;
      Stats.incr t.stats Stats.stack_promotions
  | Varr a when a.a_region > 0 ->
      let len = Array.length a.a_elems in
      a.a_region <- 0;
      charge t (Value.array_bytes a.a_elem len);
      record_array t ~mid ~bci Pheap.K_promote a.a_elem len;
      Stats.incr t.stats Stats.stack_promotions
  | Vobj _ | Varr _ | Vnull | Vint _ | Vbool _ -> ()

(* Monitor operations; [who] is only used in trap messages. *)
exception Unbalanced_monitor of string

let monitor_enter t (v : Value.value) =
  Stats.incr t.stats Stats.monitor_ops;
  Stats.add t.stats Stats.cycles Cost.monitor_op;
  match v with
  | Vobj o -> o.o_lock <- o.o_lock + 1
  | Varr a -> a.a_lock <- a.a_lock + 1
  | Vnull | Vint _ | Vbool _ -> raise (Unbalanced_monitor "monitorenter on a non-object")

let monitor_exit t (v : Value.value) =
  Stats.incr t.stats Stats.monitor_ops;
  Stats.add t.stats Stats.cycles Cost.monitor_op;
  match v with
  | Vobj o ->
      if o.o_lock <= 0 then raise (Unbalanced_monitor "monitorexit on an unlocked object");
      o.o_lock <- o.o_lock - 1
  | Varr a ->
      if a.a_lock <= 0 then raise (Unbalanced_monitor "monitorexit on an unlocked array");
      a.a_lock <- a.a_lock - 1
  | Vnull | Vint _ | Vbool _ -> raise (Unbalanced_monitor "monitorexit on a non-object")
