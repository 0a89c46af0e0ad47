(* Doubly-linked recency list + hashtable.  [head] is the most recently
   used end, [tail] the next eviction victim. *)
type ('k, 'v) node = {
  key : 'k;
  value : 'v;
  mutable prev : ('k, 'v) node option;  (* towards head (more recent) *)
  mutable next : ('k, 'v) node option;  (* towards tail (less recent) *)
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
}

let create capacity =
  let capacity = max 1 capacity in
  { capacity; table = Hashtbl.create (2 * capacity); head = None; tail = None }

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some n ->
      unlink t n;
      push_front t n;
      Some n.value

let add t key value =
  Option.iter (unlink t) (Hashtbl.find_opt t.table key);
  let n = { key; value; prev = None; next = None } in
  push_front t n;
  Hashtbl.replace t.table key n;
  let rec evict k =
    match t.tail with
    | Some victim when Hashtbl.length t.table > t.capacity ->
        unlink t victim;
        Hashtbl.remove t.table victim.key;
        evict (k + 1)
    | _ -> k
  in
  evict 0

let length t = Hashtbl.length t.table

let keys_lru_first t =
  (* Walking head to tail visits most recent first; the accumulator
     reverses that. *)
  let rec walk acc = function
    | None -> acc
    | Some n -> walk (n.key :: acc) n.next
  in
  walk [] t.head
