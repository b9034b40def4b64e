(* Where each value of a graph is defined, and the dominance test both IR
   checkers ({!Check} and the speculation-safety verifier) run for every
   operand and every frame-state value.

   Definitions are kept in two int arrays indexed by node id, so a query
   is two array reads and an O(1) dominator-interval test: the checkers
   run after every JIT phase, and a table lookup per use was most of
   their cost. *)

type t = {
  reachable : bool array; (* by block id *)
  doms : Dominators.t;
  def_block : int array;
      (* by node id: the defining block, [param] for a parameter,
         [undefined] for ids no reachable block or parameter defines *)
  def_index : int array; (* -1 for a phi (top of its block), else the instruction index *)
}

let undefined = -2

let param = -1

let compute (g : Graph.t) =
  let reachable = Graph.reachable g in
  let n = Graph.n_nodes g in
  let def_block = Array.make n undefined and def_index = Array.make n 0 in
  let set id b i =
    if id >= 0 && id < n then begin
      def_block.(id) <- b;
      def_index.(id) <- i
    end
  in
  let rec set_all b i = function
    | [] -> ()
    | (n : Node.t) :: rest ->
        set n.Node.id b i;
        set_all b i rest
  in
  set_all param 0 g.Graph.params;
  for bid = 0 to Graph.n_blocks g - 1 do
    if reachable.(bid) then begin
      let b = Graph.block g bid in
      set_all bid (-1) b.Graph.phis;
      for i = 0 to Pea_support.Dyn_array.length b.Graph.instrs - 1 do
        set (Pea_support.Dyn_array.get b.Graph.instrs i).Node.id bid i
      done
    end
  done;
  { reachable; doms = Dominators.compute g; def_block; def_index }

let reachable t = t.reachable

let doms t = t.doms

let block_of t id =
  if id >= 0 && id < Array.length t.def_block then Array.unsafe_get t.def_block id else undefined

let defined t id = block_of t id <> undefined

(* Is the use at index [ui] of block [ub] dominated by [id]'s definition?
   Parameters dominate everything; a phi is defined at the top of its
   block (index -1); [ui = max_int] places a use after the block's last
   instruction (a terminator, or a phi input on that edge). *)
let dominates_use t id ~ub ~ui =
  let db = block_of t id in
  if db = param then true
  else if db = undefined then false
  else if db = ub then Array.unsafe_get t.def_index id < ui
  else Dominators.dominates t.doms db ub
