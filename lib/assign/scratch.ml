(* Per-domain reusable buffers for the assignment hot paths.

   Under parallel sweeps the dominant minor-GC pressure comes from the
   O(bunches) working arrays [Greedy_fill.run] and the rank DP allocate
   per call — and OCaml 5 minor collections are stop-the-world across
   every running domain, so each worker's allocation churn stalls all of
   them.  An arena is a growable buffer a caller refills in place:
   the values written are exactly the ones a fresh [Array.init] would
   have produced, so every counter and verdict stays byte-identical to
   the allocating path (the differential tests in [test_assign] pin
   this).

   Arenas are handed out per {e domain} via DLS, but the serve layer
   runs systhreads that share one domain's DLS slot — hence the [busy]
   flag: [with_arena] borrows the domain's arena by CAS and falls back
   to a fresh short-lived arena when another thread of the same domain
   already holds it.  Correctness never depends on winning the CAS, only
   the allocation savings do. *)

type t = { mutable ints : int array; busy : bool Atomic.t }

let create () = { ints = [||]; busy = Atomic.make false }

(* Doubling growth keeps refills amortized O(1) across the mixed problem
   sizes of one sweep; buffers never shrink for the arena's lifetime.
   Callers receive a buffer of {e at least} [n] cells and must treat
   only [0 .. n-1] as theirs. *)
let ints t n =
  if Array.length t.ints < n then
    t.ints <- Array.make (max n (2 * Array.length t.ints)) 0;
  t.ints

let key : t Domain.DLS.key = Domain.DLS.new_key create

let with_arena f =
  let s = Domain.DLS.get key in
  if Atomic.compare_and_set s.busy false true then
    Fun.protect ~finally:(fun () -> Atomic.set s.busy false) (fun () -> f s)
  else
    (* Another systhread of this domain holds the arena (serve worker
       threads share the domain's DLS slot): run on a fresh one rather
       than block — same results, just no reuse for this call. *)
    f (create ())
