(** IR well-formedness checker, run after every pass in tests and (when
    [Jit.config.verify] is set) after every pipeline stage:

    - every operand of a reachable instruction is defined in a reachable
      block or is a parameter;
    - phi arity equals predecessor count; phis appear only in merge/loop
      blocks;
    - terminator targets exist and predecessor/successor lists agree;
    - invokes carry frame states (other side-effecting nodes may lose
      theirs when escape analysis re-emits them during materialization);
    - every use of a value is dominated by its definition (instruction
      operands, frame states, terminators; phi inputs are checked at the
      end of the corresponding predecessor), via {!Dominators};
    - every [F_virtual] reference in a frame-state chain has a matching
      virtual-object descriptor somewhere in that chain, so
      deoptimization can rematerialize it;
    - OSR-entry graphs ([g_osr_entry = Some _]) carry a complete
      live-local transfer map: one [Param] per interpreter local slot,
      no slot transferred twice, entry bci inside the method.

    A passing check allocates only per-graph tables ({!Defs}); the text
    of a diagnostic is built only when a rule fails. *)

type error = string

(** [check g] returns all violations found (empty = well-formed).
    [require_frame_states] (default [true]) controls the invoke rule. *)
val check : ?require_frame_states:bool -> Graph.t -> error list

(** [check_exn g] raises [Failure] with a readable message listing every
    violation. *)
val check_exn : ?require_frame_states:bool -> Graph.t -> unit
