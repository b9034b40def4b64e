(* A named counter/histogram registry.

   A [schema] is built once at module-initialization time by declaring
   metrics; every [create schema] then yields an independent instance
   whose storage is a flat int array (counters) plus a small cell per
   histogram. Declaring a new metric is one line at the declaration
   site — instances, reset, dump and to_json all follow for free.

   The first [create] seals the schema: declaring a metric against a
   sealed schema is a programming error and raises, so an instance can
   never be out of sync with its schema. A handle is the metric's slot
   in its kind's storage; counters and histograms get distinct abstract
   types, so the kind of every access is checked at compile time. *)

type kind = Counter | Histogram

(* one declaration; [m_id] indexes the storage of its kind *)
type decl = { m_id : int; m_kind : kind; m_name : string }

type counter = int

type histogram = int

type schema = {
  mutable defs_rev : decl list;
  mutable n_counters : int;
  mutable n_hists : int;
  mutable sealed : bool;
}

type hview = { h_count : int; h_sum : int; h_min : int; h_max : int }

(* mutable histogram cell; [hc_min]/[hc_max] are meaningless while
   [hc_count] is zero *)
type hcell = {
  mutable hc_count : int;
  mutable hc_sum : int;
  mutable hc_min : int;
  mutable hc_max : int;
}

type t = {
  t_schema : schema;
  counters : int array;
  cells : (int array * int) array; (* counter -> (counters, counter), see [cell] *)
  hists : hcell array;
}

let make_schema () = { defs_rev = []; n_counters = 0; n_hists = 0; sealed = false }

let declare schema kind name =
  if schema.sealed then
    invalid_arg
      (Printf.sprintf "Metrics: declaring %S after the schema was sealed by create" name);
  let id =
    match kind with
    | Counter ->
        let id = schema.n_counters in
        schema.n_counters <- id + 1;
        id
    | Histogram ->
        let id = schema.n_hists in
        schema.n_hists <- id + 1;
        id
  in
  let m = { m_id = id; m_kind = kind; m_name = name } in
  schema.defs_rev <- m :: schema.defs_rev;
  id

let counter schema name = declare schema Counter name

let histogram schema name = declare schema Histogram name

let defs schema = List.rev schema.defs_rev

let fresh_hcell () = { hc_count = 0; hc_sum = 0; hc_min = 0; hc_max = 0 }

let create schema =
  schema.sealed <- true;
  let counters = Array.make (max schema.n_counters 1) 0 in
  {
    t_schema = schema;
    counters;
    cells = Array.init (Array.length counters) (fun c -> (counters, c));
    hists = Array.init (max schema.n_hists 1) (fun _ -> fresh_hcell ());
  }

let reset t =
  Array.fill t.counters 0 (Array.length t.counters) 0;
  Array.iter
    (fun h ->
      h.hc_count <- 0;
      h.hc_sum <- 0;
      h.hc_min <- 0;
      h.hc_max <- 0)
    t.hists

let get t c = t.counters.(c)

let set t c v = t.counters.(c) <- v

let add t c v = t.counters.(c) <- t.counters.(c) + v

let incr t c = add t c 1

let cell t c = t.cells.(c)

let observe t id v =
  let h = t.hists.(id) in
  if h.hc_count = 0 then begin
    h.hc_min <- v;
    h.hc_max <- v
  end
  else begin
    if v < h.hc_min then h.hc_min <- v;
    if v > h.hc_max then h.hc_max <- v
  end;
  h.hc_count <- h.hc_count + 1;
  h.hc_sum <- h.hc_sum + v

let hist t id =
  let h = t.hists.(id) in
  { h_count = h.hc_count; h_sum = h.hc_sum; h_min = h.hc_min; h_max = h.hc_max }

type value = V_counter of int | V_histogram of hview

let dump t =
  List.map
    (fun m ->
      ( m.m_name,
        match m.m_kind with
        | Counter -> V_counter t.counters.(m.m_id)
        | Histogram -> V_histogram (hist t m.m_id) ))
    (defs t.t_schema)

let to_json t =
  let counters, hists =
    List.partition (fun m -> m.m_kind = Counter) (defs t.t_schema)
  in
  let counter_fields = List.map (fun m -> Json.int_field m.m_name t.counters.(m.m_id)) counters in
  let hist_fields =
    List.map
      (fun m ->
        let h = hist t m.m_id in
        ( m.m_name,
          Json.obj
            [
              Json.int_field "count" h.h_count;
              Json.int_field "sum" h.h_sum;
              Json.int_field "min" h.h_min;
              Json.int_field "max" h.h_max;
            ] ))
      hists
  in
  Json.obj [ ("counters", Json.obj counter_fields); ("histograms", Json.obj hist_fields) ]
