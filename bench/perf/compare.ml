(* [perf.exe --compare A B]: two sets of runs, one verdict per
   (workload, end-to-end metric).

   A set is a file of result records, one JSON object per line, as the
   all-workloads mode of perf.exe prints them:
   [{"workload": W, "seed": S, "trace": 0, "result": {...}}]; other lines
   are skipped, so whole logs can be concatenated. Wall-clock metrics are
   judged against their BENCHMARK.json bound. Model metrics repeat
   exactly for a seed, so when both sets ran a workload on the same seeds
   they are judged by exact equality, and otherwise against their bound
   like wall-clock metrics. *)

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

let num = function Mini_json.Num x -> Some x | _ -> None

let str = function Mini_json.Str s -> Some s | _ -> None

(* (workload, metric) -> values and workload -> seeds, from one set
   file. *)
let read_set path =
  let ic = open_in path in
  let h = Hashtbl.create 64 and seeds = Hashtbl.create 8 in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec lines () =
        match input_line ic with
        | exception End_of_file -> ()
        | line ->
            (match Mini_json.parse line with
            | exception Mini_json.Error _ -> ()
            | v -> (
                match
                  ( Option.bind (Mini_json.member "workload" v) str,
                    Option.bind (Mini_json.member "result" v) (Mini_json.member "metrics"),
                    Option.bind (Mini_json.member "trace" v) num )
                with
                | Some w, Some (Mini_json.Obj metrics), (None | Some 0.) ->
                    Option.iter
                      (fun s -> Hashtbl.replace seeds w (s :: Option.value (Hashtbl.find_opt seeds w) ~default:[]))
                      (Option.bind (Mini_json.member "seed" v) num);
                    List.iter
                      (fun (name, m) ->
                        match Option.bind (Mini_json.member "value" m) num with
                        | Some x ->
                            Hashtbl.replace h (w, name)
                              (x :: Option.value (Hashtbl.find_opt h (w, name)) ~default:[])
                        | None -> ())
                      metrics
                | _ -> ()));
            lines ()
      in
      lines ());
  (h, fun w -> List.sort compare (Option.value (Hashtbl.find_opt seeds w) ~default:[]))

(* End-to-end bounds from BENCHMARK.json. *)
let read_bounds path =
  let ic = open_in_bin path in
  let text = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  match Mini_json.member "end_to_end" (Mini_json.parse text) with
  | Some (Mini_json.Arr ms) ->
      List.filter_map
        (fun m ->
          match (Option.bind (Mini_json.member "name" m) str, Option.bind (Mini_json.member "bound" m) num) with
          | Some n, Some b -> Some (n, b)
          | _ -> None)
        ms
  | _ -> failwith (path ^ ": no end_to_end list")

type summary = { median : float; q1 : float; q3 : float; values : float list }

let summarize values =
  let q1, q3 = if List.length values >= 2 then Sample.quartiles values else (List.hd values, List.hd values) in
  { median = Sample.median values; q1; q3; values }

(* [judge decl ~bound ~same_seeds a b]: is set [b] better or worse than
   set [a]? *)
let judge (decl : Outcome.decl) ~bound ~same_seeds a b =
  let worse_by x y =
    (* how much worse [y] reads than [x], as a share of [x] *)
    let rel = (y -. x) /. Float.abs x in
    match decl.Outcome.better with Outcome.Lower -> rel | Outcome.Higher -> -.rel
  in
  match decl.Outcome.kind with
  | Outcome.Model when same_seeds ->
      if a.median = b.median then Unchanged else if worse_by a.median b.median > 0. then Worse else Better
  | Outcome.Model | Outcome.Wall ->
      let spread s = (s.q3 -. s.q1) /. Float.abs s.median in
      let all_of pred = List.for_all (fun y -> List.for_all (fun x -> pred (worse_by x y)) a.values) b.values in
      let change = worse_by a.median b.median in
      if Float.max (spread a) (spread b) > bound then
        if all_of (fun w -> w < 0.) then Better else if all_of (fun w -> w > 0.) then Worse else Unresolved
      else if change > bound then Worse
      else if change < -.bound then Better
      else Unchanged

let run ~bounds_path path_a path_b =
  let bounds = read_bounds bounds_path in
  let a, seeds_a = read_set path_a and b, seeds_b = read_set path_b in
  let workloads =
    Hashtbl.fold (fun (w, _) _ acc -> w :: acc) a [] @ Hashtbl.fold (fun (w, _) _ acc -> w :: acc) b []
    |> List.sort_uniq compare
  in
  Printf.printf "%-12s %-22s %-7s %28s %28s %8s  %s\n" "workload" "metric" "unit" "A median [q1, q3]"
    "B median [q1, q3]" "change" "verdict";
  let worse = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (decl : Outcome.decl) ->
          match (Hashtbl.find_opt a (w, decl.Outcome.name), Hashtbl.find_opt b (w, decl.Outcome.name)) with
          | Some va, Some vb ->
              let sa = summarize va and sb = summarize vb in
              let bound = Option.value (List.assoc_opt decl.Outcome.name bounds) ~default:0. in
              let v = judge decl ~bound ~same_seeds:(seeds_a w = seeds_b w) sa sb in
              if v = Worse then incr worse;
              let cell s = Printf.sprintf "%.4g [%.4g, %.4g]" s.median s.q1 s.q3 in
              Printf.printf "%-12s %-22s %-7s %28s %28s %+7.2f%%  %s\n" w decl.Outcome.name decl.Outcome.unit_
                (cell sa) (cell sb)
                (100. *. (sb.median -. sa.median) /. Float.abs sa.median)
                (verdict_string v)
          | _ -> Printf.printf "%-12s %-22s missing from one set\n" w decl.Outcome.name)
        Outcome.end_to_end)
    workloads;
  !worse = 0
