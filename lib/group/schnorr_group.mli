(** Schnorr group: prime-order-[q] subgroup of Z{_p}{^*} for a safe prime
    [p = 2q + 1] — the discrete-log setting of the threshold coin (Cachin,
    Kursawe & Shoup) and of the Shoup–Gennaro TDH2 cryptosystem. *)

type cache
(** Mutable per-params cache of fixed-base exponentiation tables; opaque
    to callers, populated lazily by {!prepare_base} / {!exp_g}. *)

type params = { p : Bignum.t; q : Bignum.t; g : Bignum.t; cache : cache }

type elt = Bignum.t
(** A quadratic residue mod [p]; treat as abstract, validate foreign
    values with {!is_element} / {!elt_of_bytes}. *)

val params_equal : params -> params -> bool

val generate : ?bits:int -> Prng.t -> params
(** Fresh group parameters with a [bits]-bit safe prime (default 128;
    toy-sized for simulation speed — all algorithms are size-agnostic). *)

val default : ?bits:int -> unit -> params
(** Deterministic, memoized parameters shared by tests and benches. *)

val unsafe_params : p:Bignum.t -> q:Bignum.t -> g:Bignum.t -> params
(** Wrap raw values as [params] with an empty table cache — for
    benchmarks that need arbitrary-size moduli without paying for
    safe-prime generation.  The only check is the precondition
    [p = 2q + 1] ({!is_element} is exact only for such pairs, and then
    only when [p] is prime); anything else raises [Invalid_argument].
    Primality and [g]'s order are {e not} checked, so never use with
    values received from another party. *)

val one : params -> elt
val generator : params -> elt
val elt_equal : elt -> elt -> bool

val is_element : params -> Bignum.t -> bool
(** Subgroup membership check: [0 < x < p] and the Jacobi symbol
    [(x/p) = 1].  For the safe prime [p = 2q + 1] the order-[q] subgroup
    is exactly the quadratic residues, so this is the same verdict as
    [x{^q} = 1 mod p] without an exponentiation.  Must be applied to any
    value received from another (possibly corrupted) party. *)

val mul : params -> elt -> elt -> elt

val exp : params -> elt -> Bignum.t -> elt
(** [exp ps a e] is [a^e] with the exponent reduced mod [q].  Bases
    registered with {!prepare_base} are served from their fixed-base
    table (no squarings); others go through [Bignum.pow_mod]. *)

val exp_g : params -> Bignum.t -> elt
(** Like [exp ps ps.g], but builds the generator's fixed-base table on
    first use. *)

val prepare_base : params -> elt -> unit
(** Build (idempotently) a fixed-base table for [base], so subsequent
    {!exp} / {!exp2} / {!multi_exp} calls on it cost ~numbits(q)/4
    multiplications and no squarings.  Worth it from roughly three
    exponentiations on the same base; the cache keeps the most recently
    used handful of bases. *)

val exp2 : params -> elt -> Bignum.t -> elt -> Bignum.t -> elt
(** [exp2 ps a x b y = mul ps (exp ps a x) (exp ps b y)], computed with
    fixed-base tables where available and a shared squaring chain
    (Shamir's trick) otherwise — the shape of every DLEQ/Schnorr
    verification equation [g^z * h^-c], which callers holding a subgroup
    member [h] write as [exp2 ps g z h (q - c)]. *)

val multi_exp : params -> (elt * Bignum.t) list -> elt
(** Product of [base^exp] over the list (empty product is [one]), using
    fixed-base tables where available and one interleaved squaring
    chain (Straus) for the rest — the shape of Feldman share
    verification. *)

val inv : params -> elt -> elt
val elt_to_bytes : params -> elt -> string
val elt_of_bytes : params -> string -> elt option

val hash_to_elt : params -> domain:string -> string list -> elt
(** Random oracle into the group (reduce then square). *)

val random_exponent : params -> Prng.t -> Bignum.t

val hash_to_exponent : params -> domain:string -> string list -> Bignum.t
(** Random oracle into Z{_q} (Fiat–Shamir challenges). *)

val pp_params : Format.formatter -> params -> unit
