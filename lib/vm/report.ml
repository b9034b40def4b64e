(* [mjvm report]: aggregate the cycle-exact sampling profile, the
   allocation-site heap profile, and PEA site provenance into one view —
   top methods by self cycles, tier residency, allocation hot lists with
   the compiler's decision next to the observed counts, and
   flamegraph-compatible collapsed stacks. Everything is rendered from
   deterministically sorted aggregates, so a report is byte-identical
   whenever the underlying profile is. *)

open Pea_bytecode
module Pcpu = Pea_obs.Profile_cpu
module Pheap = Pea_obs.Profile_heap
module Json = Pea_obs.Json
module Flight = Pea_obs.Flight
module Event = Pea_obs.Event
module Pea = Pea_core.Pea

type method_row = {
  mr_name : string;
  mr_tier : string; (* tier of the sampled leaf frames *)
  mr_self : int; (* sample weight with this (method, tier) at the leaf *)
  mr_total : int; (* sample weight with it anywhere on the stack *)
}

type alloc_row = {
  ar_method : string;
  ar_bci : int;
  ar_cls : string;
  ar_kind : string; (* alloc | scratch | stack | remat | promote *)
  ar_count : int;
  ar_bytes : int;
  ar_pea : string option; (* what PEA decided about this site, if known *)
}

type t = {
  rp_interval : int; (* cycles per sample; 0 when no cpu profile *)
  rp_total : int; (* total sample weight *)
  rp_methods : method_row list; (* sorted by self weight desc *)
  rp_tiers : (string * int) list; (* leaf-tier residency, interp/jit/osr *)
  rp_allocs : alloc_row list; (* sorted by count desc *)
  rp_stacks : (string * int) list; (* collapsed stacks, deterministic order *)
}

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)
(* ------------------------------------------------------------------ *)

let method_name (program : Link.program) mid =
  if mid >= 0 && mid < Array.length program.Link.methods then
    Classfile.qualified_name program.Link.methods.(mid)
  else "<unknown>"

let frame_label program (f : Pcpu.frame) =
  method_name program f.Pcpu.fr_mid ^ "[" ^ Pcpu.tier_string f.Pcpu.fr_tier ^ "]"

(* Merge every PEA site report for one (method, bci) — normal-entry and
   OSR compilations each contribute one — into a single annotation. *)
type pea_merge = {
  mutable pm_virtualized : bool;
  mutable pm_forced : bool;
  mutable pm_stack : bool; (* some materializations went to the stack region *)
  mutable pm_reasons : string list; (* deduplicated, first-seen order *)
}

let pea_annotations (sites : Pea.site_report list) =
  let tbl : (string * int, pea_merge) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (r : Pea.site_report) ->
      let key = (r.Pea.site_method, r.Pea.site_bci) in
      let m =
        match Hashtbl.find_opt tbl key with
        | Some m -> m
        | None ->
            let m =
              { pm_virtualized = false; pm_forced = false; pm_stack = false; pm_reasons = [] }
            in
            Hashtbl.replace tbl key m;
            m
      in
      if r.Pea.sr_virtualized then m.pm_virtualized <- true;
      if r.Pea.sr_forced then m.pm_forced <- true;
      if r.Pea.sr_stack > 0 then m.pm_stack <- true;
      List.iter
        (fun (_, reason) ->
          let s = Event.reason_string reason in
          if not (List.mem s m.pm_reasons) then m.pm_reasons <- m.pm_reasons @ [ s ])
        r.Pea.sr_materialized)
    sites;
  fun ~meth ~bci ->
    match Hashtbl.find_opt tbl (meth, bci) with
    | None -> None
    | Some m ->
        Some
          (match (m.pm_virtualized, m.pm_reasons) with
          | true, [] -> "virtualized: NoEscape"
          | true, rs ->
              "virtualized, materialized"
              ^ (if m.pm_stack then " to stack" else "")
              ^ ": " ^ String.concat ", " rs
          | false, [] -> "escaping"
          | false, rs -> "escaping: " ^ String.concat ", " rs)

let collect ~(program : Link.program) ?(cpu : Pcpu.t option) ?(heap : Pheap.t option)
    ?(pea_sites : Pea.site_report list = []) () : t =
  (* --- cpu profile --- *)
  let self : (string * string, int ref) Hashtbl.t = Hashtbl.create 32 in
  let total : (string, int ref) Hashtbl.t = Hashtbl.create 32 in
  let tiers : (string, int ref) Hashtbl.t = Hashtbl.create 4 in
  let bump tbl key w =
    match Hashtbl.find_opt tbl key with
    | Some r -> r := !r + w
    | None -> Hashtbl.replace tbl key (ref w)
  in
  let stacks =
    match cpu with
    | None -> []
    | Some p ->
        List.rev
          (Pcpu.fold
             (fun ~frames ~bci ~weight acc ->
               let labels = Array.to_list (Array.map (frame_label program) frames) in
               let leaf_name, leaf_tier =
                 match Array.length frames with
                 | 0 -> ("<root>", "interp")
                 | n ->
                     let f = frames.(n - 1) in
                     (method_name program f.Pcpu.fr_mid, Pcpu.tier_string f.Pcpu.fr_tier)
               in
               bump self (leaf_name, leaf_tier) weight;
               bump tiers leaf_tier weight;
               (* total: once per distinct method on the stack *)
               let seen = Hashtbl.create 8 in
               Array.iter
                 (fun (f : Pcpu.frame) ->
                   let name = method_name program f.Pcpu.fr_mid in
                   if not (Hashtbl.mem seen name) then begin
                     Hashtbl.replace seen name ();
                     bump total name weight
                   end)
                 frames;
               let line =
                 (match labels with [] -> "<root>" | _ -> String.concat ";" labels)
                 ^ (if bci >= 0 then Printf.sprintf ";@%d" bci else "")
               in
               (line, weight) :: acc)
             p [])
  in
  let methods =
    Hashtbl.fold
      (fun (name, tier) w acc ->
        let tot = match Hashtbl.find_opt total name with Some r -> !r | None -> !w in
        { mr_name = name; mr_tier = tier; mr_self = !w; mr_total = tot } :: acc)
      self []
    |> List.sort (fun a b ->
           compare (-a.mr_self, a.mr_name, a.mr_tier) (-b.mr_self, b.mr_name, b.mr_tier))
  in
  let tier_rows =
    List.filter_map
      (fun tname ->
        match Hashtbl.find_opt tiers tname with Some r -> Some (tname, !r) | None -> None)
      [ "interp"; "jit"; "osr" ]
  in
  (* --- heap profile --- *)
  let annotate = pea_annotations pea_sites in
  let allocs =
    match heap with
    | None -> []
    | Some h ->
        Pheap.fold
          (fun ~mid ~bci ~cls ~kind ~count ~bytes acc ->
            let meth = method_name program mid in
            {
              ar_method = meth;
              ar_bci = bci;
              ar_cls = cls;
              ar_kind = Pheap.kind_string kind;
              ar_count = count;
              ar_bytes = bytes;
              ar_pea = annotate ~meth ~bci;
            }
            :: acc)
          h []
        |> List.sort (fun a b ->
               compare
                 (-a.ar_count, a.ar_method, a.ar_bci, a.ar_cls, a.ar_kind)
                 (-b.ar_count, b.ar_method, b.ar_bci, b.ar_cls, b.ar_kind))
  in
  {
    rp_interval = (match cpu with Some p -> Pcpu.interval p | None -> 0);
    rp_total = (match cpu with Some p -> Pcpu.total_weight p | None -> 0);
    rp_methods = methods;
    rp_tiers = tier_rows;
    rp_allocs = allocs;
    rp_stacks = stacks;
  }

(* [Vm.create] wires the sampling clock to the new VM's cycle counter *)
let profile ?(interval = Pcpu.default_interval) ~config ~iterations program =
  let cpu = Pcpu.create ~interval () and heap = Pheap.create () in
  let vm = Vm.create ~cpu ~heap ~config program in
  ignore (Vm.run_main_iterations vm iterations);
  (vm, cpu, heap)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let take n l =
  let rec go n = function x :: rest when n > 0 -> x :: go (n - 1) rest | _ -> [] in
  if n < 0 then l else go n l

(* integer permille, rendered as a stable "xx.y%" *)
let pct w total =
  if total <= 0 then "0.0%"
  else
    let pm = 1000 * w / total in
    Printf.sprintf "%d.%d%%" (pm / 10) (pm mod 10)

let site_label row =
  if row.ar_bci >= 0 then Printf.sprintf "%s@%d" row.ar_method row.ar_bci
  else row.ar_method ^ "@?"

let pp ?(top = 10) ppf t =
  Format.pp_open_vbox ppf 0;
  Format.fprintf ppf "mjvm report";
  Format.fprintf ppf "@,===========";
  if t.rp_total > 0 then begin
    Format.fprintf ppf "@,@,cpu profile: %d samples, 1 per %d cycles (~%d cycles covered)"
      t.rp_total t.rp_interval (t.rp_total * t.rp_interval);
    Format.fprintf ppf "@,@,top methods by self cycles:";
    Format.fprintf ppf "@,  %-7s %-12s %-7s %-6s method" "self" "self-cycles" "total" "tier";
    List.iter
      (fun r ->
        Format.fprintf ppf "@,  %-7s %-12d %-7s %-6s %s" (pct r.mr_self t.rp_total)
          (r.mr_self * t.rp_interval) (pct r.mr_total t.rp_total) r.mr_tier r.mr_name)
      (take top t.rp_methods);
    Format.fprintf ppf "@,@,tier residency:";
    List.iter
      (fun (tier, w) -> Format.fprintf ppf "@,  %-6s %7s  (%d samples)" tier (pct w t.rp_total) w)
      t.rp_tiers
  end
  else Format.fprintf ppf "@,@,cpu profile: no samples";
  (match t.rp_allocs with
  | [] -> Format.fprintf ppf "@,@,allocation sites: none recorded"
  | rows ->
      Format.fprintf ppf "@,@,allocation sites (by count):";
      Format.fprintf ppf "@,  %-8s %-10s %-8s %-24s %-12s pea" "count" "bytes" "kind" "site"
        "class";
      List.iter
        (fun r ->
          Format.fprintf ppf "@,  %-8d %-10d %-8s %-24s %-12s %s" r.ar_count r.ar_bytes r.ar_kind
            (site_label r) r.ar_cls
            (match r.ar_pea with Some a -> a | None -> "-"))
        (take top rows));
  (match t.rp_stacks with
  | [] -> ()
  | stacks ->
      Format.fprintf ppf "@,@,collapsed stacks (flamegraph format):";
      List.iter (fun (line, w) -> Format.fprintf ppf "@,%s %d" line w) stacks);
  Format.pp_close_box ppf ();
  Format.pp_print_newline ppf ()

let to_string ?top t = Format.asprintf "%a" (pp ?top) t

(* The collapsed-stack section alone, one "frame;frame;@bci count" line
   per distinct stack — pipe into a flamegraph tool directly. *)
let collapsed t =
  String.concat "" (List.map (fun (line, w) -> Printf.sprintf "%s %d\n" line w) t.rp_stacks)

let to_json ?(top = -1) t =
  let methods =
    List.map
      (fun r ->
        Json.obj
          [
            Json.str_field "method" r.mr_name;
            Json.str_field "tier" r.mr_tier;
            Json.int_field "self_samples" r.mr_self;
            Json.int_field "self_cycles" (r.mr_self * t.rp_interval);
            Json.int_field "total_samples" r.mr_total;
          ])
      (take top t.rp_methods)
  in
  let tiers =
    List.map
      (fun (tier, w) -> Json.obj [ Json.str_field "tier" tier; Json.int_field "samples" w ])
      t.rp_tiers
  in
  let allocs =
    List.map
      (fun r ->
        Json.obj
          ([
             Json.str_field "method" r.ar_method;
             Json.int_field "bci" r.ar_bci;
             Json.str_field "class" r.ar_cls;
             Json.str_field "kind" r.ar_kind;
             Json.int_field "count" r.ar_count;
             Json.int_field "bytes" r.ar_bytes;
           ]
          @ match r.ar_pea with Some a -> [ Json.str_field "pea" a ] | None -> []))
      (take top t.rp_allocs)
  in
  let stacks =
    List.map
      (fun (line, w) -> Json.obj [ Json.str_field "stack" line; Json.int_field "samples" w ])
      t.rp_stacks
  in
  Json.obj
    [
      Json.int_field "interval" t.rp_interval;
      Json.int_field "total_samples" t.rp_total;
      ("methods", Json.arr methods);
      ("tiers", Json.arr tiers);
      ("allocations", Json.arr allocs);
      ("stacks", Json.arr stacks);
    ]

(* ------------------------------------------------------------------ *)
(* Flight dumps                                                        *)
(* ------------------------------------------------------------------ *)

(* Aggregate a parsed flight dump: per-event-name counts, then the raw
   event stream (it is bounded by the ring capacity). *)
let flight_event_counts (d : Flight.dump) =
  let counts : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let name =
        match Option.bind (Json.member "ev" e) Json.to_str with Some s -> s | None -> "?"
      in
      match Hashtbl.find_opt counts name with
      | Some r -> incr r
      | None -> Hashtbl.replace counts name (ref 1))
    d.Flight.d_entries;
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) counts [] |> List.sort compare

let flight_entry_line e =
  let geti name = Option.bind (Json.member name e) Json.to_int in
  let seq = Option.value ~default:(-1) (geti "seq") in
  let cycles = Option.value ~default:(-1) (geti "cycles") in
  let ev =
    match Option.bind (Json.member "ev" e) Json.to_str with Some s -> s | None -> "?"
  in
  let rest =
    match e with
    | Json.Obj fields ->
        List.filter_map
          (fun (k, v) ->
            if k = "seq" || k = "cycles" || k = "ev" then None
            else
              match v with
              | Json.Str s -> Some (Printf.sprintf "%s=%s" k s)
              | Json.Int n -> Some (Printf.sprintf "%s=%d" k n)
              | Json.Bool b -> Some (Printf.sprintf "%s=%b" k b)
              | _ -> None)
          fields
    | _ -> []
  in
  Printf.sprintf "  [%d] @%d %s%s" seq cycles ev
    (match rest with [] -> "" | _ -> " " ^ String.concat " " rest)

let flight_to_string (d : Flight.dump) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "flight dump: reason=%s events=%d dropped=%d ordinal=%d\n" d.Flight.d_reason
       d.Flight.d_events d.Flight.d_dropped d.Flight.d_ordinal);
  Buffer.add_string buf "\nevent counts:\n";
  List.iter
    (fun (name, n) -> Buffer.add_string buf (Printf.sprintf "  %-24s %d\n" name n))
    (flight_event_counts d);
  Buffer.add_string buf "\nevents:\n";
  List.iter
    (fun e -> Buffer.add_string buf (flight_entry_line e ^ "\n"))
    d.Flight.d_entries;
  Buffer.contents buf

let flight_to_json (d : Flight.dump) =
  let counts =
    List.map
      (fun (name, n) -> Json.obj [ Json.str_field "event" name; Json.int_field "count" n ])
      (flight_event_counts d)
  in
  Json.obj
    [
      Json.str_field "reason" d.Flight.d_reason;
      Json.int_field "events" d.Flight.d_events;
      Json.int_field "dropped" d.Flight.d_dropped;
      Json.int_field "dump" d.Flight.d_ordinal;
      ("event_counts", Json.arr counts);
    ]
