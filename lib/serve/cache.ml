let stat_mem_hits = Ir_obs.counter "serve_cache/mem_hits"
let stat_disk_hits = Ir_obs.counter "serve_cache/disk_hits"
let stat_misses = Ir_obs.counter "serve_cache/misses"
let stat_evictions = Ir_obs.counter "serve_cache/evictions"
let stat_stores = Ir_obs.counter "serve_cache/stores"

let disk_counters =
  {
    Disk_store.corrupt = Ir_obs.counter "serve_cache/disk_corrupt";
    errors = Ir_obs.counter "serve_cache/disk_errors";
    tmp_swept = Ir_obs.counter "serve_cache/tmp_swept";
  }

(* The tag versions the whole serving stack's result semantics: a change
   to what a payload means bumps it.
   /2: entries moved to the {!Disk_store} layout (shared with table
   snapshots); /1 entries are discarded on load. *)
let schema_tag = "ia-rank/cache/2"
let suffix = ".entry"

type t = {
  lock : Mutex.t;
  mem : (string, string) Lru.t;
  disk : Disk_store.t option;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let entry_path ~dir ~digest = Disk_store.path ~dir ~suffix digest

let create ?(capacity = 512) ?dir () =
  let make disk =
    Ok { lock = Mutex.create (); mem = Lru.create capacity; disk }
  in
  match dir with
  | None -> make None
  | Some dir -> (
      match Disk_store.create ~tag:schema_tag ~suffix disk_counters ~dir with
      | Ok store -> make (Some store)
      | Error e -> Error e)

type source = Memory | Disk

let mem_store t ~digest payload =
  with_lock t (fun () ->
      Ir_obs.add stat_evictions (Lru.add t.mem digest payload))

let find t ~digest =
  match with_lock t (fun () -> Lru.find t.mem digest) with
  | Some payload ->
      Ir_obs.incr stat_mem_hits;
      Some (payload, Memory)
  | None -> (
      match Option.map (fun d -> Disk_store.load d ~key:digest) t.disk with
      | Some (Ok payload) ->
          (* Promote: the next lookup is a memory hit. *)
          mem_store t ~digest payload;
          Ir_obs.incr stat_disk_hits;
          Some (payload, Disk)
      | Some (Error _) | None ->
          Ir_obs.incr stat_misses;
          None)

let store t ~digest payload =
  Ir_obs.incr stat_stores;
  mem_store t ~digest payload;
  Option.iter (fun d -> ignore (Disk_store.save d ~key:digest payload)) t.disk

let mem_count t = with_lock t (fun () -> Lru.length t.mem)
let mem_keys_lru_first t = with_lock t (fun () -> Lru.keys_lru_first t.mem)
