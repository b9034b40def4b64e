(* Frame states: the mapping from optimized-code state back to interpreter
   (bytecode) state, §2 and §5.5 of the paper.

   A frame state describes the interpreter frame at a specific bytecode
   index: local variables, operand stack, and held locks. After inlining a
   state has an [fs_outer] chain describing the caller frames. Partial
   escape analysis rewrites values that refer to scalar-replaced
   allocations into [F_virtual] references, with a descriptor snapshot in
   [fs_virtuals]; deoptimization rematerializes them. *)

open Pea_bytecode

type node_id = int

type virt_id = int

(* Compile-time constants. Shared with {!Node} (which re-exports it). *)
type const =
  | Cint of int
  | Cbool of bool
  | Cnull
  | Cundef (* value of a local that is read before being written *)

let string_of_const = function
  | Cint n -> string_of_int n
  | Cbool b -> string_of_bool b
  | Cnull -> "null"
  | Cundef -> "undef"

type fs_value =
  | F_node of node_id (* a value available in compiled code *)
  | F_virtual of virt_id (* a scalar-replaced allocation *)
  | F_const of const (* a compile-time constant *)

type t = {
  fs_method : Classfile.rt_method;
  fs_bci : int; (* bytecode index at which the interpreter resumes *)
  fs_locals : fs_value array;
  fs_stack : fs_value list; (* top of stack first *)
  fs_locks : fs_value list; (* innermost lock first *)
  fs_outer : t option;
  fs_virtuals : (virt_id * virtual_desc) list;
      (* descriptors for every [F_virtual] reachable from this state,
         including through other descriptors *)
}

and virtual_desc = {
  vd_shape : shape;
  vd_fields : fs_value array; (* field values, or array elements *)
  vd_lock : int; (* lock depth to restore on rematerialization *)
}

(* A scalar-replaced allocation is either an object (fields are layout
   slots) or a fixed-length array (fields are elements). *)
and shape =
  | Obj_shape of Classfile.rt_class
  | Arr_shape of Pea_mjava.Ast.ty (* element type; length = #fields *)

let rec map_values f (fs : t) =
  {
    fs with
    fs_locals = Array.map f fs.fs_locals;
    fs_stack = List.map f fs.fs_stack;
    fs_locks = List.map f fs.fs_locks;
    fs_outer = Option.map (map_values f) fs.fs_outer;
    fs_virtuals =
      List.map
        (fun (id, vd) -> (id, { vd with vd_fields = Array.map f vd.vd_fields }))
        fs.fs_virtuals;
  }

let rec iter_value_descs f = function
  | [] -> ()
  | (_, vd) :: rest ->
      Array.iter f vd.vd_fields;
      iter_value_descs f rest

let rec iter_values f (fs : t) =
  Array.iter f fs.fs_locals;
  List.iter f fs.fs_stack;
  List.iter f fs.fs_locks;
  iter_value_descs f fs.fs_virtuals;
  match fs.fs_outer with None -> () | Some o -> iter_values f o

(* [iter_nodes f fs] and [iter_virtuals f fs]: [iter_values] restricted
   to one kind of value, without allocating. The checkers and dead-code
   elimination walk every state of a graph after every pass. *)
let rec iter_node_list f = function
  | [] -> ()
  | F_node n :: rest ->
      f n;
      iter_node_list f rest
  | (F_virtual _ | F_const _) :: rest -> iter_node_list f rest

let iter_node_array f a =
  for i = 0 to Array.length a - 1 do
    match Array.unsafe_get a i with F_node n -> f n | F_virtual _ | F_const _ -> ()
  done

let rec iter_node_descs f = function
  | [] -> ()
  | (_, vd) :: rest ->
      iter_node_array f vd.vd_fields;
      iter_node_descs f rest

let rec iter_nodes f (fs : t) =
  iter_node_array f fs.fs_locals;
  iter_node_list f fs.fs_stack;
  iter_node_list f fs.fs_locks;
  iter_node_descs f fs.fs_virtuals;
  match fs.fs_outer with None -> () | Some o -> iter_nodes f o

let rec iter_virtual_list f = function
  | [] -> ()
  | F_virtual v :: rest ->
      f v;
      iter_virtual_list f rest
  | (F_node _ | F_const _) :: rest -> iter_virtual_list f rest

let iter_virtual_array f a =
  for i = 0 to Array.length a - 1 do
    match Array.unsafe_get a i with F_virtual v -> f v | F_node _ | F_const _ -> ()
  done

let rec iter_virtual_descs f = function
  | [] -> ()
  | (_, vd) :: rest ->
      iter_virtual_array f vd.vd_fields;
      iter_virtual_descs f rest

let rec iter_virtuals f (fs : t) =
  iter_virtual_array f fs.fs_locals;
  iter_virtual_list f fs.fs_stack;
  iter_virtual_list f fs.fs_locks;
  iter_virtual_descs f fs.fs_virtuals;
  match fs.fs_outer with None -> () | Some o -> iter_virtuals f o

(* [exists_node p fs]: does [p] hold for some node id in the state? *)
let rec exists_node_list p = function
  | [] -> false
  | F_node n :: rest -> p n || exists_node_list p rest
  | (F_virtual _ | F_const _) :: rest -> exists_node_list p rest

let exists_node_array p a =
  let rec go i =
    i < Array.length a
    && ((match Array.unsafe_get a i with F_node n -> p n | F_virtual _ | F_const _ -> false)
       || go (i + 1))
  in
  go 0

let rec exists_node_virtuals p = function
  | [] -> false
  | (_, vd) :: rest -> exists_node_array p vd.vd_fields || exists_node_virtuals p rest

let rec exists_node p (fs : t) =
  exists_node_array p fs.fs_locals
  || exists_node_list p fs.fs_stack
  || exists_node_list p fs.fs_locks
  || exists_node_virtuals p fs.fs_virtuals
  || match fs.fs_outer with None -> false | Some o -> exists_node p o

(* [iter_descs f fs] calls [f id vd] on every descriptor of the chain,
   innermost frame first. *)
let rec iter_desc_list f = function
  | [] -> ()
  | (id, vd) :: rest ->
      f id vd;
      iter_desc_list f rest

let rec iter_descs f (fs : t) =
  iter_desc_list f fs.fs_virtuals;
  match fs.fs_outer with None -> () | Some o -> iter_descs f o

let rec depth fs = match fs.fs_outer with None -> 1 | Some o -> 1 + depth o

let string_of_fs_value = function
  | F_node n -> Printf.sprintf "v%d" n
  | F_virtual v -> Printf.sprintf "virt%d" v
  | F_const c -> string_of_const c

let rec pp ppf fs =
  Fmt.pf ppf "@%s:%d locals=[%s] stack=[%s]%s%s"
    (Classfile.qualified_name fs.fs_method)
    fs.fs_bci
    (String.concat ", " (Array.to_list (Array.map string_of_fs_value fs.fs_locals)))
    (String.concat ", " (List.map string_of_fs_value fs.fs_stack))
    (match fs.fs_virtuals with
    | [] -> ""
    | vs ->
        " virtuals=["
        ^ String.concat ", "
            (List.map
               (fun (id, vd) ->
                 let shape_name =
                   match vd.vd_shape with
                   | Obj_shape c -> c.cls_name
                   | Arr_shape t -> Pea_mjava.Ast.string_of_ty t ^ "[]"
                 in
                 Printf.sprintf "virt%d:%s{%s}%s" id shape_name
                   (String.concat ","
                      (Array.to_list (Array.map string_of_fs_value vd.vd_fields)))
                   (if vd.vd_lock > 0 then Printf.sprintf "/lock%d" vd.vd_lock else ""))
               vs)
        ^ "]")
    (match fs.fs_outer with None -> "" | Some _ -> " outer=...");
  match fs.fs_outer with None -> () | Some o -> Fmt.pf ppf "@ <- %a" pp o
