(* Span recorder for the traced run.

   A span is one timed call into a layer: name, start, end, the span that
   was open when it started (its parent) and the operation it belongs
   to. Spans live in memory and are written out when the run ends, as
   Chrome [trace_event] JSON plus a self-time table. The recorder is
   single-domain: only the benchmark's own thread opens spans, around the
   calls it makes into the library. Workloads take a [t option]; with
   [None] a span costs one match and records nothing. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int; (* id of the enclosing span; -1 at top level *)
  start_ms : float;
  mutable stop_ms : float;
}

type t = {
  mutable spans_rev : span list;
  mutable next_id : int;
  mutable open_ids : int list; (* innermost first *)
  mutable counts_rev : (string * int * float) list; (* (name, op, value) *)
}

let create () = { spans_rev = []; next_id = 0; open_ids = []; counts_rev = [] }

(* The name of the span that wraps a whole operation; its direct children
   are the top-level layer spans whose coverage the run reports. *)
let op_name = "op"

let with_span tr name ~op f =
  match tr with
  | None -> f ()
  | Some t ->
      let parent = match t.open_ids with p :: _ -> p | [] -> -1 in
      let s = { id = t.next_id; name; op; parent; start_ms = Sample.now_ms (); stop_ms = nan } in
      t.next_id <- t.next_id + 1;
      t.open_ids <- s.id :: t.open_ids;
      Fun.protect
        ~finally:(fun () ->
          s.stop_ms <- Sample.now_ms ();
          t.open_ids <- List.tl t.open_ids;
          t.spans_rev <- s :: t.spans_rev)
        f

let count tr name ~op v =
  match tr with None -> () | Some t -> t.counts_rev <- (name, op, v) :: t.counts_rev

let spans t = List.sort (fun a b -> compare a.id b.id) t.spans_rev

let duration s = s.stop_ms -. s.start_ms

(* Child time per span id: the part of each span's interval its direct
   children cover (children never overlap: one thread opens them). *)
let child_ms spans =
  let h = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace h s.parent (duration s +. Option.value (Hashtbl.find_opt h s.parent) ~default:0.))
    spans;
  h

let self_ms children s = duration s -. Option.value (Hashtbl.find_opt children s.id) ~default:0.

(* Self-time table: per span name, (calls, total ms, self ms), largest
   self time first. *)
let self_table spans =
  let children = child_ms spans in
  let h = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let calls, total, self = Option.value (Hashtbl.find_opt h s.name) ~default:(0, 0., 0.) in
      Hashtbl.replace h s.name (calls + 1, total +. duration s, self +. self_ms children s))
    spans;
  Hashtbl.fold (fun name (c, tot, self) acc -> (name, c, tot, self) :: acc) h []
  |> List.sort (fun (n1, _, _, s1) (n2, _, _, s2) -> compare (s2, n1) (s1, n2))

let distinct_ops xs = List.length (List.sort_uniq compare xs)

(* Mean per operation of the time spent in spans called [name], over the
   operations that have any; 0 when no operation reached the layer. *)
let per_op_ms spans name =
  match List.filter (fun s -> s.name = name) spans with
  | [] -> 0.
  | mine ->
      Sample.sum (List.map duration mine) /. float_of_int (distinct_ops (List.map (fun s -> s.op) mine))

(* The same for a counter recorded with [count]. *)
let per_op_count t name =
  match List.filter (fun (n, _, _) -> n = name) t.counts_rev with
  | [] -> 0.
  | mine ->
      Sample.sum (List.map (fun (_, _, v) -> v) mine)
      /. float_of_int (distinct_ops (List.map (fun (_, op, _) -> op) mine))

(* Share of the operations' total wall time spent in their direct child
   spans called [name]; 0 when no operation calls into it. *)
let op_share spans name =
  let ops = Hashtbl.create 64 in
  List.iter (fun s -> if s.name = op_name then Hashtbl.replace ops s.id ()) spans;
  let total = Sample.sum (List.filter_map (fun s -> if s.name = op_name then Some (duration s) else None) spans) in
  let mine =
    Sample.sum
      (List.filter_map
         (fun s -> if s.name = name && Hashtbl.mem ops s.parent then Some (duration s) else None)
         spans)
  in
  if total > 0. then mine /. total else 0.

(* Share of the operations' total wall time that their top-level layer
   spans cover; 1 when there is no operation span. *)
let coverage spans =
  let children = child_ms spans in
  let ops = List.filter (fun s -> s.name = op_name) spans in
  let total = Sample.sum (List.map duration ops) in
  if total > 0. then
    Sample.sum (List.map (fun s -> Option.value (Hashtbl.find_opt children s.id) ~default:0.) ops) /. total
  else 1.

let chrome_json spans =
  let t0 = match spans with s :: _ -> s.start_ms | [] -> 0. in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}"
        s.name
        ((s.start_ms -. t0) *. 1000.)
        (duration s *. 1000.)
        s.id s.parent s.op)
    spans;
  Buffer.add_string b "]}\n";
  Buffer.contents b

let pp_self_table ppf table =
  let self_total = Sample.sum (List.map (fun (_, _, _, self) -> self) table) in
  Format.fprintf ppf "%-24s %8s %12s %12s %7s@." "layer" "calls" "total ms" "self ms" "self %";
  List.iter
    (fun (name, calls, total, self) ->
      Format.fprintf ppf "%-24s %8d %12.3f %12.3f %6.1f%%@." name calls total self
        (if self_total > 0. then 100. *. self /. self_total else 0.))
    table
