(** Typed, deterministic trace events for the compile/execute pipeline.
    Site ids are IR node ids, blocks are basic-block ids; timestamps are
    added by {!Trace} from the cost-model cycle counter. *)

(** Why partial escape analysis materialized an allocation. *)
type pea_reason =
  | R_merge_mixed
  | R_merge_lock
  | R_merge_field
  | R_merge_phi
  | R_loop_escape
  | R_call of string
  | R_unknown_callee of string
  | R_store_escaped
  | R_store_static
  | R_return
  | R_forced
  | R_use of string

val reason_string : pea_reason -> string
(** Short stable token, used in JSONL/Chrome output. *)

val reason_message : pea_reason -> string
(** Human-readable sentence fragment, used by [mjvm explain]. *)

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
      (** a deopt site excluded from further speculation; [meth]/[bci]
          are the innermost deopt frame, i.e. the blacklist key *)
  | Inline_speculative of { meth : string; callee : string; cls : string; bci : int }
      (** the JIT spliced [callee] into [meth] behind an exact-class guard
          on [cls] at the virtual call site [bci] *)
  | Inline_guard_deopt of { meth : string; bci : int; expected : string; actual : string }
      (** a receiver-class guard missed at runtime: the actual receiver
          class broke the speculation *)
  | Ic_transition of { meth : string; callee : string; cls : string; kind : ic_kind }
  | Tier_promote of { meth : string; tier : string; invocations : int }
  | Compile_enqueue of { meth : string; epoch : int; depth : int }
      (** a compile task entered the serving layer's background queue;
          [depth] is the queue depth after the enqueue *)
  | Compile_dedup of { meth : string }
      (** a request coalesced into an already-queued task *)
  | Compile_drop of { meth : string }
      (** a request refused by a full queue *)
  | Compile_failed of { meth : string; error : string }
      (** the compiler raised; the key is never compiled again and its
          requesting tenants are quarantined *)
  | Verify_violation of { meth : string; phase : string; rule : string; site : string; detail : string }
      (** the speculation-safety verifier rejected a graph *)
  | Serve_request of { tenant : string; meth : string; round : int; latency : int }
      (** one request served; [latency] in tenant VM cycles, [round] is
          the session round (the serving layer's deterministic clock) *)
  | Cache_shared_hit of { tenant : string; meth : string; round : int }
      (** a tenant adopted a compiled graph from the shared code cache *)
  | Cache_publish of { meth : string; epoch : int; round : int }
      (** a finished compile passed epoch validation and entered the
          shared cache *)
  | Cache_epoch_reject of { meth : string; epoch : int; current_epoch : int; round : int }
      (** a finished compile refused at install: a deopt moved the
          (app, method) epoch while it was in flight; never installed *)
  | Tenant_quarantine of { tenant : string; reason : string; round : int }
      (** a tenant demoted to interpreter-only serving (deopt storm or
          compile failure); other tenants' cache entries are untouched *)

val name : t -> string

val fields : t -> Json.field list
(** Payload fields (without the event name), in a fixed order. *)

val span_kind : t -> [ `Begin | `End | `Instant ]

val chrome_name : t -> string
(** Chrome trace_event [name]: identical for the B and E records of one
    span so Perfetto pairs them. *)
