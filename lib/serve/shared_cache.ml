(* Epoch-validated cross-tenant code cache and profile store.

   Entries are keyed by (app index, mth_id): tenants running the same
   application share compiled graphs. Every key carries a *shared
   invalidation epoch*: when any tenant's deopt invalidates a method, the
   coordinator bumps the shared epoch, which (a) drops the cache entry
   and its profile snapshot, and (b) dooms every in-flight compile keyed
   to the old epoch — [publish] refuses the stale graph, so it is
   recompiled against fresh snapshots, never installed.

   Concurrency: one plain [Hashtbl], no lock. Worker domains only ever
   call [lookup], and only while a round runs. Every write ([bump],
   [publish], the profile store) happens on the coordinator at the round
   barrier, which starts after [Domain.join] has returned for every
   worker of the round; the next round's workers are spawned after the
   barrier ends. [Domain.spawn] and [Domain.join] order memory, so every
   write happens-before the next round's reads and no read overlaps a
   write. Because [bump] drops the entry in the same step as the epoch
   move, a present entry is always valid: [lookup] never needs to read
   the epoch table. *)

module Jit = Pea_vm.Jit
module Profile = Pea_rt.Profile

type key = int * int (* (app index, mth_id) *)

type entry = {
  ce_code : Jit.compiled; (* immutable: every adopter gets this record *)
  ce_epoch : int; (* shared epoch the install was validated against *)
}

type t = {
  entries : (key, entry) Hashtbl.t;
  epochs : (key, int) Hashtbl.t;
  profiles : (key, Profile.t) Hashtbl.t;
      (* first-requester profile snapshot for the key's current epoch;
         compile tasks read their inputs here *)
}

let create () =
  { entries = Hashtbl.create 16; epochs = Hashtbl.create 32; profiles = Hashtbl.create 32 }

let epoch t k = Option.value (Hashtbl.find_opt t.epochs k) ~default:0

(* A deopt invalidated [k]'s speculation basis: move the shared epoch,
   drop the entry and the profile snapshot it was compiled from. *)
let bump t k =
  Hashtbl.replace t.epochs k (epoch t k + 1);
  Hashtbl.remove t.profiles k;
  Hashtbl.remove t.entries k

(* Install a finished compile — or refuse it. [`Stale current] means a
   deopt moved the epoch while the compile was in flight; the graph is
   never installed. *)
let publish t k ~epoch:e code =
  let current = epoch t k in
  if current <> e then `Stale current
  else begin
    Hashtbl.replace t.entries k { ce_code = code; ce_epoch = e };
    `Installed
  end

(* Adopt-side read, the one call made from worker domains; returns the
   published code with the epoch it was installed under. Compiled code is
   immutable, so every adopter gets the one record: each tenant's VM
   keeps its own closure translation of it, bound to its own heap. *)
let lookup t k = Option.map (fun e -> (e.ce_code, e.ce_epoch)) (Hashtbl.find_opt t.entries k)

let mem t k = Hashtbl.mem t.entries k

let entry_epoch t k = Option.map (fun e -> e.ce_epoch) (Hashtbl.find_opt t.entries k)

let size t = Hashtbl.length t.entries

(* Profile store: the compile inputs for [k]'s current epoch. The first
   requester's snapshot serves every tenant's compile of the method. *)
let remember_profile t k p = if not (Hashtbl.mem t.profiles k) then Hashtbl.replace t.profiles k p

let profile_of t k = Hashtbl.find_opt t.profiles k
