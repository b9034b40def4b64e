(* Sets of ints that empty in O(1): a member's slot holds the current
   generation, and [clear] starts a new one. The checkers reuse one set
   per graph for every frame state instead of building a table each. *)

type t = {
  mutable stamps : int array;
  mutable gen : int;
}

let create () = { stamps = Array.make 16 0; gen = 1 }

let clear t = t.gen <- t.gen + 1

(* zigzag: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ... so negative ids have slots too *)
let slot i = if i >= 0 then i lsl 1 else (-i lsl 1) - 1

let add t i =
  let s = slot i in
  if s >= Array.length t.stamps then begin
    let bigger = Array.make (max (s + 1) (2 * Array.length t.stamps)) 0 in
    Array.blit t.stamps 0 bigger 0 (Array.length t.stamps);
    t.stamps <- bigger
  end;
  Array.unsafe_set t.stamps s t.gen

let remove t i =
  let s = slot i in
  if s < Array.length t.stamps then Array.unsafe_set t.stamps s 0

let mem t i =
  let s = slot i in
  s < Array.length t.stamps && Array.unsafe_get t.stamps s = t.gen
