(* Allocation-site heap profiler.

   Attributes every *materialized* allocation — the ones PEA could not
   (or chose not to) virtualize, plus rematerializations and stack-object
   promotions at deopt and scratch and stack allocations — to its
   originating bytecode site (method id, bci). Together with the PEA
   site reports (which say what the compiler *decided* per site) this
   answers the paper's Table-1 question empirically: "site C.m@12: 300
   allocs under --opt none, 0 under pea (virtualized: NoEscape), 42
   remat". Its charged records are also the VM's per-class allocation
   ledger ([by_class]).

   Like {!Trace} and {!Profile_cpu}, it is an argument of the VM it
   watches; the VM hands it to its heap, the one code that records into
   it, as an option: one load and compare per allocation when off. The
   profiler never touches Stats or Heap counters, so heap profiling
   cannot drift any deterministic counter. *)

type kind =
  | K_alloc (* ordinary heap allocation, charged to Stats *)
  | K_scratch (* scalar-replaced scratch allocation (stack_allocs) *)
  | K_stack (* frame-bounded stack-region allocation, reclaimed at frame pop *)
  | K_remat (* rematerialized at deoptimization *)
  | K_promote (* stack-region object promoted to the heap at deoptimization *)

let kind_string = function
  | K_alloc -> "alloc"
  | K_scratch -> "scratch"
  | K_stack -> "stack"
  | K_remat -> "remat"
  | K_promote -> "promote"

(* the kinds Stats.allocations counts *)
let charged = function K_alloc | K_remat | K_promote -> true | K_scratch | K_stack -> false

type site_key = {
  ak_mid : int; (* method id; -1 when the site has no frame state *)
  ak_bci : int; (* bytecode index; -1 when unknown *)
  ak_cls : string; (* class name, or "ty[]" for arrays *)
  ak_kind : kind;
}

type cell = { mutable c_count : int; mutable c_bytes : int }

type t = { cells : (site_key, cell) Hashtbl.t; mutable n_records : int }

let create () = { cells = Hashtbl.create 128; n_records = 0 }

let clear t =
  Hashtbl.reset t.cells;
  t.n_records <- 0

let total_records t = t.n_records

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let record t ~mid ~bci ~cls ~kind ~bytes =
  let key = { ak_mid = mid; ak_bci = bci; ak_cls = cls; ak_kind = kind } in
  (match Hashtbl.find_opt t.cells key with
  | Some c ->
      c.c_count <- c.c_count + 1;
      c.c_bytes <- c.c_bytes + bytes
  | None -> Hashtbl.replace t.cells key { c_count = 1; c_bytes = bytes });
  t.n_records <- t.n_records + 1

(* ------------------------------------------------------------------ *)
(* Readout                                                             *)
(* ------------------------------------------------------------------ *)

let sorted_cells t =
  Hashtbl.fold (fun k c acc -> (k, c.c_count, c.c_bytes) :: acc) t.cells []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let fold f t init =
  List.fold_left
    (fun acc (k, count, bytes) ->
      f ~mid:k.ak_mid ~bci:k.ak_bci ~cls:k.ak_cls ~kind:k.ak_kind ~count ~bytes acc)
    init (sorted_cells t)

let by_class t =
  let totals = Hashtbl.create 16 in
  Hashtbl.iter
    (fun k c ->
      if charged k.ak_kind then
        let count, bytes = Option.value (Hashtbl.find_opt totals k.ak_cls) ~default:(0, 0) in
        Hashtbl.replace totals k.ak_cls (count + c.c_count, bytes + c.c_bytes))
    t.cells;
  Hashtbl.fold (fun cls (count, bytes) acc -> (cls, count, bytes) :: acc) totals []
  |> List.sort (fun (a, _, x) (b, _, y) -> compare (y, a) (x, b))
