(* Deterministic session generator for the multi-tenant serving harness.

   A session script is heavy mixed-tenant traffic over a small set of MJ
   "service" applications: rounds of requests, each request naming a
   tenant, a static handler method and its int arguments. Everything is
   derived from a seed through a fixed LCG — no [Random], no wall clock —
   so the same parameters always produce byte-identical scripts, which is
   what makes serving goldens and the replay-vs-threaded equality gate
   possible.

   Two script shapes:
   - {!mixed_script}: steady traffic across allocation-heavy handler
     apps; tenants share apps, so the shared code cache gets real
     cross-tenant hits.
   - {!storm_script}: tenant 0 runs the trap app and (when [storm] is
     set) is driven through enough distinct cold-branch deopts to trip
     the deopt-storm guard and get quarantined; the victim tenants run
     steady traffic whose rounds are identical whether or not tenant 0
     storms — the isolation property the serving tests pin down. *)

module Server = Pea_serve.Server

(* ------------------------------------------------------------------ *)
(* Service applications                                                *)
(* ------------------------------------------------------------------ *)

(* PEA-friendly pair arithmetic: the handlers allocate scratch objects
   that scalar-replace once compiled. *)
let pair_app =
  "class Pair { int a; int b; }\n\
   class Svc {\n\
  \  static int handle(int x) {\n\
  \    Pair p = new Pair();\n\
  \    p.a = x;\n\
  \    p.b = x + x;\n\
  \    int s = 0;\n\
  \    int k = 0;\n\
  \    while (k < 6) { s = s + p.a + p.b; k = k + 1; }\n\
  \    return s;\n\
  \  }\n\
  \  static int mix(int x, int y) {\n\
  \    Pair p = new Pair();\n\
  \    Pair q = new Pair();\n\
  \    p.a = x;\n\
  \    q.a = y;\n\
  \    p.b = q.a + 3;\n\
  \    q.b = p.a - 1;\n\
  \    return p.a * q.b + p.b * q.a;\n\
  \  }\n\
   }\n"

(* Accumulator plus bounded recursion: a second code shape so the shared
   cache and summaries see more than one app. *)
let calc_app =
  "class Acc { int t; }\n\
   class Svc {\n\
  \  static int handle(int x) {\n\
  \    Acc a = new Acc();\n\
  \    a.t = x;\n\
  \    int k = 0;\n\
  \    while (k < 5) { a.t = a.t + k; k = k + 1; }\n\
  \    return a.t;\n\
  \  }\n\
  \  static int fib(int n) {\n\
  \    if (n < 2) return n;\n\
  \    return Svc.fib(n - 1) + Svc.fib(n - 2);\n\
  \  }\n\
   }\n"

(* Deopt-trap service: six cold escape branches, each fired by one exact
   argument. Warm traffic never takes them, so compiled code prunes all
   six; each trigger argument then deopts once, blacklists its site and
   forces a recompile — six triggers outrun the default storm limit. *)
let trap_app =
  "class Box { int v; }\n\
   class Svc {\n\
  \  static Box g;\n\
  \  static int handle(int x) {\n\
  \    Box b = new Box();\n\
  \    b.v = x + 7;\n\
  \    if (x == 9001) { Svc.g = b; }\n\
  \    if (x == 9002) { Svc.g = b; }\n\
  \    if (x == 9003) { Svc.g = b; }\n\
  \    if (x == 9004) { Svc.g = b; }\n\
  \    if (x == 9005) { Svc.g = b; }\n\
  \    if (x == 9006) { Svc.g = b; }\n\
  \    return b.v + x;\n\
  \  }\n\
   }\n"

(* Handlers per app: (class, method, arity). *)
let pair_handlers = [ ("Svc", "handle", 1); ("Svc", "mix", 2) ]

let calc_handlers = [ ("Svc", "handle", 1); ("Svc", "fib", 1) ]

(* ------------------------------------------------------------------ *)
(* Deterministic request stream                                        *)
(* ------------------------------------------------------------------ *)

(* Fixed 30-bit LCG; the only randomness source in a script. *)
let lcg_next s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

type rng = { mutable rs : int }

let rng seed = { rs = (seed land 0x3FFFFFFF) lxor 0x2545F491 }

(* draw from the high bits: an LCG's low bits cycle with tiny periods
   (bit 0 strictly alternates), which would turn small [mod n] draws
   into fixed patterns *)
let rand r n =
  r.rs <- lcg_next r.rs;
  (r.rs lsr 13) mod n

(* fib arguments stay tiny; everything else stays far from the trap
   triggers (>= 9001) *)
let arg_for r meth = if meth = "fib" then 3 + rand r 5 else 1 + rand r 100

let request r ~tenant ~handlers =
  let cls, meth, arity = List.nth handlers (rand r (List.length handlers)) in
  {
    Server.rq_tenant = tenant;
    rq_class = cls;
    rq_method = meth;
    rq_args = List.init arity (fun _ -> arg_for r meth);
  }

(* ------------------------------------------------------------------ *)
(* Scripts                                                             *)
(* ------------------------------------------------------------------ *)

(* Steady mixed traffic: [tenants] tenants alternating over the pair and
   calc apps, [rounds] rounds of [requests_per_round] requests spread
   round-robin with LCG jitter. *)
let mixed_script ~tenants ~rounds ~requests_per_round ~seed () =
  if tenants <= 0 then invalid_arg "Sessions.mixed_script: tenants must be positive";
  let r = rng seed in
  let apps = [ ("pair-svc", pair_app); ("calc-svc", calc_app) ] in
  let app_of t = t mod 2 in
  let handlers_of t = if app_of t = 0 then pair_handlers else calc_handlers in
  let tenant_names = List.init tenants (fun i -> (Printf.sprintf "tenant-%d" i, app_of i)) in
  let round _ =
    List.init requests_per_round (fun j ->
        (* round-robin base keeps every tenant served every round;
           jitter skews the mix so rounds are not identical *)
        let t = if rand r 4 = 0 then rand r tenants else j mod tenants in
        request r ~tenant:t ~handlers:(handlers_of t))
  in
  { Server.sc_apps = apps; sc_tenants = tenant_names; sc_rounds = List.init rounds round }

(* Storm scenario: tenant 0 on the trap app, [victims] tenants on the
   pair app. Tenant 0 warms the handler, then fires one fresh trap
   argument every [trigger_gap] rounds — each needs a deopt, an epoch
   bump and a recompile cycle before the next can fire. With [storm]
   unset, the would-be triggers are benign arguments on the same rounds:
   the victims' request streams are generated from an independent RNG,
   so they are byte-identical in both variants.

   The trigger schedule assumes a compile threshold of at most 20
   (tenant 0 sends five handler calls per round, so the compile profile
   snapshot reaches the pruner's 20-execution floor by round 4, installs
   by round 5, and the first trigger at round [warm_rounds] = 6 lands on
   *adopted shared code* — an interpreted trigger would record its
   branch as taken and spoil the speculation the deopt needs). One
   trigger every [trigger_gap] (= 3) rounds leaves room for the deopt →
   epoch bump → recompile → re-adopt cycle between triggers, so the six
   triggers produce six distinct-site invalidations and trip the
   default storm limit of 5. *)
let storm_script ?(storm = true) ?(warm_rounds = 6) ~victims ~rounds ~requests_per_round ~seed () =
  if victims <= 0 then invalid_arg "Sessions.storm_script: victims must be positive";
  let trigger_gap = 3 in
  let vr = rng seed (* victims' stream: independent of the storm flag *) in
  let ar = rng (seed + 77) (* tenant 0's benign arguments *) in
  let tenant_names =
    ("stormy", 0) :: List.init victims (fun i -> (Printf.sprintf "victim-%d" i, 1))
  in
  let stormy_req x = { Server.rq_tenant = 0; rq_class = "Svc"; rq_method = "handle"; rq_args = [ x ] } in
  let round i =
    let stormy =
      let base = List.init 5 (fun _ -> stormy_req (1 + rand ar 100)) in
      (* one trigger per gap, after the warm-up prefix *)
      if i >= warm_rounds && (i - warm_rounds) mod trigger_gap = 0 then
        let k = 1 + ((i - warm_rounds) / trigger_gap) in
        let x = if storm && k <= 6 then 9000 + k else 1 + rand ar 100 in
        base @ [ stormy_req x ]
      else base
    in
    let victims_reqs =
      List.init requests_per_round (fun j ->
          let t = 1 + (j mod victims) in
          request vr ~tenant:t ~handlers:pair_handlers)
    in
    stormy @ victims_reqs
  in
  {
    Server.sc_apps = [ ("trap-svc", trap_app); ("pair-svc", pair_app) ];
    sc_tenants = tenant_names;
    sc_rounds = List.init rounds round;
  }
