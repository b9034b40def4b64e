(* Interpreter-only references: every result a workload produces is
   compared with what a VM that never compiles computes on the same
   source. *)

open Pea_bytecode
open Pea_rt
open Pea_vm
module Server = Pea_serve.Server

let config = { Jit.default_config with Jit.opt = Jit.O_none; compile_threshold = max_int; osr = false }

let vm src = Vm.create ~config (Link.compile_source src)

(* Results are compared as rendered strings: structural equality on
   values would compare heap object identities. *)
let render_value = function None -> "void" | Some v -> Value.string_of_value v

let render_result (r : Vm.result) =
  String.concat " " (render_value r.Vm.return_value :: List.map Value.string_of_value r.Vm.printed)

(* A request rendered the way the server's request executor renders it. *)
let render_request vm (program : Link.program) (rq : Server.request) =
  match Link.find_method program rq.Server.rq_class rq.Server.rq_method with
  | exception Not_found -> Printf.sprintf "error:no-method %s.%s" rq.Server.rq_class rq.Server.rq_method
  | m -> (
      match Vm.invoke vm m (List.map (fun i -> Value.Vint i) rq.Server.rq_args) with
      | r -> render_value r
      | exception Interp.Mj_throw v -> "throw:" ^ Value.string_of_value v
      | exception Interp.Trap msg -> "trap:" ^ msg)

(* [tenant_results script rounds] runs every tenant's requests from
   [rounds] on its own interpreter-only VM over its app: the results
   each tenant of a shared-cache server must report, in script order. *)
let tenant_results (script : Server.script) rounds =
  let tenants =
    Array.of_list
      (List.map
         (fun (_, app) ->
           let src = snd (List.nth script.Server.sc_apps app) in
           let program = Link.compile_source ~require_main:false src in
           (program, Vm.create ~config program, ref []))
         script.Server.sc_tenants)
  in
  List.iter
    (List.iter (fun (rq : Server.request) ->
         let program, vm, acc = tenants.(rq.Server.rq_tenant) in
         acc := render_request vm program rq :: !acc))
    rounds;
  Array.to_list (Array.map (fun (_, _, acc) -> List.rev !acc) tenants)

(* [parallel_map f xs] is [List.map f xs] computed on this domain and one
   more (the host's two cores), each taking the next element as it
   finishes one. Only for the checks after a measured loop: reference
   VMs share no state, and nothing is being timed. *)
let parallel_map f xs =
  let a = Array.of_list xs in
  let out = Array.make (Array.length a) None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length a then begin
      out.(i) <- Some (f a.(i));
      work ()
    end
  in
  let helper = Domain.spawn work in
  Fun.protect ~finally:(fun () -> Domain.join helper) work;
  Array.to_list (Array.map Option.get out)

(* Results kept until they are checked are kept as digests. *)
let digest x = Digest.to_hex (Digest.string (Marshal.to_string x []))

(* The test hook behind [--corrupt]: falsify one expected value so the
   check must fail. *)
let corrupt s = s ^ "#corrupted"
