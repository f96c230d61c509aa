(** Benchmark and example programs (Scheme sources): the paper's workloads
    (ctak, fib, deep recursion), the Gabriel-suite pieces used by the
    frame-overhead comparison (tak, takl, cpstak, ack, queens, boyer, div,
    destruct), flonum mandelbrot, and the continuation showcases
    (generators, samefringe, amb). *)

val tak : string
val fib : string
val ack : string
val ctak : string
(** Set the global [ctak-capture] to a capture operator before calling
    [ctak]; every continuation it captures is invoked exactly once. *)

val deep : string
val queens : string
val boyer : string
val generator : string
val samefringe : string
val amb : string
val cpstak : string
val takl : string
val div : string
val destruct : string

val all_defs : string
(** Everything above except [samefringe] and [amb] (which have their own
    top-level state), concatenated for [Scheme.load_corpus]. *)
