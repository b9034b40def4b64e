type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let make n x = { data = Array.make (max n 1) x; len = n }

let length t = t.len

let check t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Dyn_array: index %d out of bounds (len %d)" i t.len)

let get t i = check t i; t.data.(i)

let set t i x = check t i; t.data.(i) <- x

let grow t x =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 8 else cap * 2 in
  let data = Array.make new_cap x in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.len - 1

let iter f t =
  for i = 0 to t.len - 1 do f t.data.(i) done

let iteri f t =
  for i = 0 to t.len - 1 do f i t.data.(i) done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do acc := f !acc t.data.(i) done;
  !acc

let to_list t =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (t.data.(i) :: acc) in
  loop (t.len - 1) []

let of_list xs =
  let t = create () in
  List.iter (fun x -> ignore (push t x)) xs;
  t

let copy t = { data = Array.copy t.data; len = t.len }

let clear t = t.len <- 0

let rec exists_from p t i = i < t.len && (p t.data.(i) || exists_from p t (i + 1))

let exists p t = exists_from p t 0

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Dyn_array.truncate";
  t.len <- n
