type t = { mutable next_id : int }

let create () = { next_id = 0 }

let next t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let peek t = t.next_id

let reserve t n = if n > t.next_id then t.next_id <- n
