(* Flight recorder: the bounded trace ring kept always-on, snapshotted
   to disk when the VM hits something worth debugging — deopt-storm
   pinning, a compile failure, or an oracle divergence. A recorder is an
   argument of the VM it watches ([Vm.create ~flight]) and holds no ring
   of its own: on an incident the VM hands it its tracer, which is the
   ring the recorder dumps (a VM handed a recorder but no tracer keeps a
   private one). The ring costs what tracing costs, and the recorder only
   adds a file write on the rare trigger path.

   The dump format is one JSON header line (trigger reason, entry count,
   drop count, dump ordinal) followed by the ring contents in the JSONL
   trace format, so [mjvm report --flight] can parse it with {!Json}. *)

type t = {
  fl_path : string;
  mutable fl_dumps : int; (* how many times this recorder has triggered *)
}

let create ~path = { fl_path = path; fl_dumps = 0 }

let dumps t = t.fl_dumps

(* ------------------------------------------------------------------ *)
(* Triggering                                                          *)
(* ------------------------------------------------------------------ *)

let dump_string t ring ~reason =
  Json.obj
    [
      Json.str_field "flight" reason;
      Json.int_field "events" (Trace.length ring);
      Json.int_field "dropped" (Trace.dropped ring);
      Json.int_field "dump" t.fl_dumps;
    ]
  ^ "\n" ^ Trace.jsonl_string ring

(* Each trigger overwrites the file: the latest incident wins, which is
   the one the user is chasing. A write failure must never take down the
   VM it is meant to debug, but it must not be silent either — a user
   who asked for --flight-dump and hit an incident would otherwise chase a
   dump that was never written. One warning per failed trigger goes to
   stderr; the run's result and exit status are unaffected. *)
let trigger t ring ~reason =
  t.fl_dumps <- t.fl_dumps + 1;
  try
    let oc = open_out t.fl_path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (dump_string t ring ~reason))
  with Sys_error msg -> Printf.eprintf "mjvm: flight dump failed: %s\n%!" msg

(* ------------------------------------------------------------------ *)
(* Reading dumps back                                                  *)
(* ------------------------------------------------------------------ *)

type dump = {
  d_reason : string;
  d_events : int;
  d_dropped : int;
  d_ordinal : int;
  d_entries : Json.value list; (* parsed JSONL event objects, in order *)
}

let parse_dump s =
  let lines =
    String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> Error "empty flight dump"
  | hd :: rest -> (
      match Json.parse hd with
      | exception Json.Parse_error msg -> Error ("bad flight header: " ^ msg)
      | h -> (
          match Json.member "flight" h with
          | None -> Error "not a flight dump (missing \"flight\" header field)"
          | Some reason_v -> (
              let reason = Option.value ~default:"?" (Json.to_str reason_v) in
              let geti name =
                Option.value ~default:0
                  (Option.bind (Json.member name h) Json.to_int)
              in
              try
                let entries = List.map Json.parse rest in
                Ok
                  {
                    d_reason = reason;
                    d_events = geti "events";
                    d_dropped = geti "dropped";
                    d_ordinal = geti "dump";
                    d_entries = entries;
                  }
              with Json.Parse_error msg -> Error ("bad flight entry: " ^ msg))))

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | s -> parse_dump s
