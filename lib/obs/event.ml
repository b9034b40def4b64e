(* Typed trace events for the compile/execute pipeline.

   Every quantity carried here is deterministic: allocation-site ids are
   IR node ids, blocks are basic-block ids, timestamps (added by Trace)
   come from the cost-model cycle counter — never from wall clock — so a
   trace of a given program is byte-for-byte reproducible. *)

(* Why partial escape analysis materialized an allocation. *)
type pea_reason =
  | R_merge_mixed (* virtual on some predecessors of a merge, real on others *)
  | R_merge_lock (* lock depth differs across merge predecessors *)
  | R_merge_field (* a field phi forced its virtual value to materialize *)
  | R_merge_phi (* object identity flows into a phi that cannot stay virtual *)
  | R_loop_escape (* loop speculation gave up: escapes on a back-edge *)
  | R_call of string (* passed to a callee whose summary does not clear it *)
  | R_unknown_callee of string (* passed to a callee with summaries disabled *)
  | R_store_escaped (* stored into an already-materialized object *)
  | R_store_static (* stored into a static field: global escape *)
  | R_return (* returned from the method *)
  | R_forced (* pre-pass escape analysis marked the site escaping *)
  | R_use of string (* any other consuming use (throw, compare, …) *)

let reason_string = function
  | R_merge_mixed -> "merge-mixed"
  | R_merge_lock -> "merge-lock-depth"
  | R_merge_field -> "merge-field-phi"
  | R_merge_phi -> "merge-object-phi"
  | R_loop_escape -> "loop-escape"
  | R_call c -> "call:" ^ c
  | R_unknown_callee c -> "unknown-callee:" ^ c
  | R_store_escaped -> "store-into-escaped"
  | R_store_static -> "store-static"
  | R_return -> "return"
  | R_forced -> "pre-escaped"
  | R_use u -> "use:" ^ u

let reason_message = function
  | R_merge_mixed -> "virtual on some predecessors of a control-flow merge but not all"
  | R_merge_lock -> "lock depth differs across merge predecessors"
  | R_merge_field -> "a field phi needed the virtual value it carries materialized"
  | R_merge_phi -> "its identity flows into a phi that cannot stay virtual"
  | R_loop_escape -> "escapes on a loop back-edge, so loop speculation gave up"
  | R_call c -> Printf.sprintf "passed to %s, whose summary does not clear the argument" c
  | R_unknown_callee c ->
      Printf.sprintf "passed to %s with interprocedural summaries unavailable" c
  | R_store_escaped -> "stored into an object that is itself materialized"
  | R_store_static -> "stored into a static field (global escape)"
  | R_return -> "returned from the method"
  | R_forced -> "marked escaping by the whole-method escape pre-pass"
  | R_use u -> "consumed by " ^ u

type ic_kind = Ic_seed | Ic_rebias

type t =
  | Compile_start of { meth : string; opt : string }
  | Compile_end of { meth : string; nodes : int }
  | Phase_start of { meth : string; phase : string }
  | Phase_end of { meth : string; phase : string }
  | Pea_virtualize of { meth : string; site : int; block : int; cls : string }
  | Pea_materialize of { meth : string; site : int; block : int; reason : pea_reason }
  | Pea_scratch_arg of { meth : string; site : int; callee : string }
  | Lock_elided of { meth : string; site : int; block : int }
  | Deopt of { meth : string; bci : int; reason : string; rematerialized : int }
  | Site_blacklist of { meth : string; bci : int }
      (* a deopt site excluded from further speculation; [meth]/[bci] are
         the innermost deopt frame, i.e. the blacklist key *)
  | Inline_speculative of { meth : string; callee : string; cls : string; bci : int }
      (* the JIT spliced [callee] into [meth] behind an exact-class guard
         on [cls] at the virtual call site [bci] *)
  | Inline_guard_deopt of { meth : string; bci : int; expected : string; actual : string }
      (* a receiver-class guard missed at runtime: the actual receiver
         class broke the speculation and the frame deopted to the
         interpreter at the pre-call state *)
  | Ic_transition of { meth : string; callee : string; cls : string; kind : ic_kind }
  | Tier_promote of { meth : string; tier : string; invocations : int }
  (* The serving layer's background-compile queue (lib/serve). [epoch]
     is the method's shared invalidation epoch the task was keyed to at
     enqueue. *)
  | Compile_enqueue of { meth : string; epoch : int; depth : int }
  | Compile_dedup of { meth : string }
  | Compile_drop of { meth : string }
  | Compile_failed of { meth : string; error : string }
  | Verify_violation of { meth : string; phase : string; rule : string; site : string; detail : string }
  (* Multi-tenant serving harness (lib/serve). [round] is the session
     round index — the serving layer's deterministic clock. *)
  | Serve_request of { tenant : string; meth : string; round : int; latency : int }
  | Cache_shared_hit of { tenant : string; meth : string; round : int }
  | Cache_publish of { meth : string; epoch : int; round : int }
  | Cache_epoch_reject of { meth : string; epoch : int; current_epoch : int; round : int }
  | Tenant_quarantine of { tenant : string; reason : string; round : int }

let name = function
  | Compile_start _ -> "compile_start"
  | Compile_end _ -> "compile_end"
  | Phase_start _ -> "phase_start"
  | Phase_end _ -> "phase_end"
  | Pea_virtualize _ -> "pea_virtualize"
  | Pea_materialize _ -> "pea_materialize"
  | Pea_scratch_arg _ -> "pea_scratch_arg"
  | Lock_elided _ -> "lock_elided"
  | Deopt _ -> "deopt"
  | Site_blacklist _ -> "site_blacklist"
  | Inline_speculative _ -> "inline_speculative"
  | Inline_guard_deopt _ -> "inline_guard_deopt"
  | Ic_transition _ -> "ic_transition"
  | Tier_promote _ -> "tier_promote"
  | Compile_enqueue _ -> "compile_enqueue"
  | Compile_dedup _ -> "compile_dedup"
  | Compile_drop _ -> "compile_drop"
  | Compile_failed _ -> "compile_failed"
  | Verify_violation _ -> "verify_violation"
  | Serve_request _ -> "serve_request"
  | Cache_shared_hit _ -> "cache_shared_hit"
  | Cache_publish _ -> "cache_publish"
  | Cache_epoch_reject _ -> "cache_epoch_reject"
  | Tenant_quarantine _ -> "tenant_quarantine"

(* Payload fields (without the event name), in a fixed order. *)
let fields ev : Json.field list =
  let meth m = Json.str_field "method" m in
  match ev with
  | Compile_start { meth = m; opt } -> [ meth m; Json.str_field "opt" opt ]
  | Compile_end { meth = m; nodes } -> [ meth m; Json.int_field "nodes" nodes ]
  | Phase_start { meth = m; phase } | Phase_end { meth = m; phase } ->
      [ meth m; Json.str_field "phase" phase ]
  | Pea_virtualize { meth = m; site; block; cls } ->
      [ meth m; Json.int_field "site" site; Json.int_field "block" block; Json.str_field "class" cls ]
  | Pea_materialize { meth = m; site; block; reason } ->
      [
        meth m;
        Json.int_field "site" site;
        Json.int_field "block" block;
        Json.str_field "reason" (reason_string reason);
      ]
  | Pea_scratch_arg { meth = m; site; callee } ->
      [ meth m; Json.int_field "site" site; Json.str_field "callee" callee ]
  | Lock_elided { meth = m; site; block } ->
      [ meth m; Json.int_field "site" site; Json.int_field "block" block ]
  | Deopt { meth = m; bci; reason; rematerialized } ->
      [
        meth m;
        Json.int_field "bci" bci;
        Json.str_field "reason" reason;
        Json.int_field "rematerialized" rematerialized;
      ]
  | Site_blacklist { meth = m; bci } -> [ meth m; Json.int_field "bci" bci ]
  | Inline_speculative { meth = m; callee; cls; bci } ->
      [
        meth m;
        Json.str_field "callee" callee;
        Json.str_field "class" cls;
        Json.int_field "bci" bci;
      ]
  | Inline_guard_deopt { meth = m; bci; expected; actual } ->
      [
        meth m;
        Json.int_field "bci" bci;
        Json.str_field "expected" expected;
        Json.str_field "actual" actual;
      ]
  | Ic_transition { meth = m; callee; cls; kind } ->
      [
        meth m;
        Json.str_field "callee" callee;
        Json.str_field "class" cls;
        Json.str_field "kind" (match kind with Ic_seed -> "seed" | Ic_rebias -> "rebias");
      ]
  | Tier_promote { meth = m; tier; invocations } ->
      [ meth m; Json.str_field "tier" tier; Json.int_field "invocations" invocations ]
  | Compile_enqueue { meth = m; epoch; depth } ->
      [ meth m; Json.int_field "epoch" epoch; Json.int_field "depth" depth ]
  | Compile_dedup { meth = m } | Compile_drop { meth = m } -> [ meth m ]
  | Compile_failed { meth = m; error } -> [ meth m; Json.str_field "error" error ]
  | Verify_violation { meth = m; phase; rule; site; detail } ->
      [
        meth m;
        Json.str_field "phase" phase;
        Json.str_field "rule" rule;
        Json.str_field "site" site;
        Json.str_field "detail" detail;
      ]
  | Serve_request { tenant; meth = m; round; latency } ->
      [
        Json.str_field "tenant" tenant;
        meth m;
        Json.int_field "round" round;
        Json.int_field "latency" latency;
      ]
  | Cache_shared_hit { tenant; meth = m; round } ->
      [ Json.str_field "tenant" tenant; meth m; Json.int_field "round" round ]
  | Cache_publish { meth = m; epoch; round } ->
      [ meth m; Json.int_field "epoch" epoch; Json.int_field "round" round ]
  | Cache_epoch_reject { meth = m; epoch; current_epoch; round } ->
      [
        meth m;
        Json.int_field "epoch" epoch;
        Json.int_field "current_epoch" current_epoch;
        Json.int_field "round" round;
      ]
  | Tenant_quarantine { tenant; reason; round } ->
      [
        Json.str_field "tenant" tenant;
        Json.str_field "reason" reason;
        Json.int_field "round" round;
      ]

(* Chrome trace_event phase: paired B/E spans for compilation and its
   phases, instants for everything else. *)
let span_kind = function
  | Compile_start _ | Phase_start _ -> `Begin
  | Compile_end _ | Phase_end _ -> `End
  | _ -> `Instant

(* B and E records of one span must carry the same name for Perfetto to
   pair them; the method lives in args. *)
let chrome_name = function
  | Compile_start _ | Compile_end _ -> "compile"
  | Phase_start { phase; _ } | Phase_end { phase; _ } -> phase
  | ev -> name ev
