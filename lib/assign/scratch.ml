(* Per-arena memory for the greedy-fill oracle: the packed state below
   the top pair of the last full pack.

   Phase B's witness probes ask [Greedy_fill.fits] about many contexts
   that share everything the pairs below the top pair read, so
   [Greedy_fill] keeps that stage's result here and resumes at the top
   pair when the next context has the same key (see its interface).

   Arenas are handed out per {e domain} via DLS, but the serve layer
   runs systhreads that share one domain's DLS slot — hence the [busy]
   flag: [with_arena] borrows the domain's arena by CAS and falls back
   to a fresh short-lived arena when another thread of the same domain
   already holds it.  Correctness never depends on winning the CAS, only
   the reuse does. *)

type below = {
  problem : Problem.t;
  from_bunch : int;
  top_pair : int;
  wires_above_below : int;
  reps_above_below : int;
  next : int;
  rem : int;
  packed : int;
}

type t = { mutable below : below option; busy : bool Atomic.t }

let create () = { below = None; busy = Atomic.make false }
let below t = t.below
let set_below t b = t.below <- Some b
let key : t Domain.DLS.key = Domain.DLS.new_key create

(* The state is dropped at every release, so a borrow always starts
   empty: what it remembers depends only on its own calls, which keeps
   the oracle's work counters independent of which domain ran what
   before, and no problem outlives its borrow in a DLS slot. *)
let with_arena f =
  let s = Domain.DLS.get key in
  if Atomic.compare_and_set s.busy false true then
    Fun.protect
      ~finally:(fun () ->
        s.below <- None;
        Atomic.set s.busy false)
      (fun () -> f s)
  else
    (* Another systhread of this domain holds the arena (serve worker
       threads share the domain's DLS slot): run on a fresh one rather
       than block — same results, just no reuse for this call. *)
    f (create ())
