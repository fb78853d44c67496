(* Sample buffers and order statistics. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 1024 0.; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0. in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort Float.compare s;
  s

(* Nearest-rank quantile of a sorted array. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let quantile t q = quantile_sorted (sorted t) q
let median t = quantile t 0.5

(* A percentile is reported only when at least ten samples lie beyond it. *)
let supports t q = float t.n *. (1. -. q) >= 10.

let sum t =
  let s = ref 0. in
  for i = 0 to t.n - 1 do
    s := !s +. t.a.(i)
  done;
  !s

let now_s () = Int64.to_float (Xic_obs.Obs.Clock.now_ns ()) /. 1e9
