(* Dominator computation using the Cooper–Harvey–Kennedy iterative
   algorithm. Used by dominator-based value numbering and by the IR
   verifier in tests. *)

type t = {
  idom : int array; (* immediate dominator per block id; entry maps to itself; -1 unreachable *)
  rpo_index : int array; (* position of each block in reverse postorder; -1 unreachable *)
  pre : int array;
  post : int array;
      (* entry and exit numbers of a DFS over the dominator tree, -1 off
         it: [a] dominates [b] iff [b]'s interval nests in [a]'s *)
}

(* Number the dominator tree so [dominates] is two comparisons instead
   of a walk up the idom chain. Only blocks whose chain reaches the entry
   are numbered; any other block has no idom and dominates no block but
   itself, as the chain walk would say. *)
let number idom =
  let n = Array.length idom in
  let first_kid = Array.make n (-1) and next_sib = Array.make n (-1) in
  for b = n - 1 downto 0 do
    let d = idom.(b) in
    if b <> Graph.entry_id && d >= 0 then begin
      next_sib.(b) <- first_kid.(d);
      first_kid.(d) <- b
    end
  done;
  let pre = Array.make n (-1) and post = Array.make n (-1) in
  let clock = ref 0 in
  let rec visit b =
    pre.(b) <- !clock;
    incr clock;
    let k = ref first_kid.(b) in
    while !k >= 0 do
      visit !k;
      k := next_sib.(!k)
    done;
    post.(b) <- !clock;
    incr clock
  in
  visit Graph.entry_id;
  (pre, post)

let compute (g : Graph.t) : t =
  let n = Graph.n_blocks g in
  let rpo_arr = Graph.rpo_array g in
  let rpo_index = Array.make n (-1) in
  Array.iteri (fun i b -> rpo_index.(b) <- i) rpo_arr;
  let idom = Array.make n (-1) in
  idom.(Graph.entry_id) <- Graph.entry_id;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo_index.(!a) > rpo_index.(!b) do
        a := idom.(!a)
      done;
      while rpo_index.(!b) > rpo_index.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  (* the meet of the reachable predecessors that already have an idom;
     -1 when there are none yet *)
  let rec meet acc = function
    | [] -> acc
    | p :: rest ->
        if rpo_index.(p) >= 0 && idom.(p) >= 0 then
          meet (if acc < 0 then p else intersect acc p) rest
        else meet acc rest
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to Array.length rpo_arr - 1 do
      let b = rpo_arr.(i) in
      if b <> Graph.entry_id then begin
        let new_idom = meet (-1) (Graph.block g b).Graph.preds in
        if new_idom >= 0 && idom.(b) <> new_idom then begin
          idom.(b) <- new_idom;
          changed := true
        end
      end
    done
  done;
  let pre, post = number idom in
  { idom; rpo_index; pre; post }

let idom t b = if b = Graph.entry_id then None else if t.idom.(b) < 0 then None else Some t.idom.(b)

(* [dominates t a b] — does block [a] dominate block [b]? *)
let dominates t a b =
  a = b || (t.pre.(a) >= 0 && t.pre.(a) < t.pre.(b) && t.post.(b) < t.post.(a))

(* Children lists of the dominator tree, for tree walks. *)
let children t n_blocks =
  let kids = Array.make n_blocks [] in
  Array.iteri
    (fun b d -> if b <> Graph.entry_id && d >= 0 then kids.(d) <- b :: kids.(d))
    t.idom;
  kids
