(** Plain (non-threshold) Schnorr signatures over the shared group, for
    individually signed protocol messages (e.g. the signed round
    proposals of atomic broadcast). *)

type keypair = { sk : Bignum.t; pk : Schnorr_group.elt }
type signature = { c : Bignum.t; z : Bignum.t }

val generate : Schnorr_group.params -> Prng.t -> keypair

val sign : Schnorr_group.params -> keypair -> string -> signature
(** Deterministic nonce (RFC-6979 style); stateless. *)

val verify :
  Schnorr_group.params -> pk:Schnorr_group.elt -> string -> signature -> bool
(** [pk] must be a member of the order-[q] subgroup (a key published by
    the dealer, never a value taken off the wire unchecked): the check
    computes [pk^-c] as [pk^(q-c)], which holds only when [pk^q = 1]. *)

val to_bytes : Schnorr_group.params -> signature -> string
val of_bytes : Schnorr_group.params -> string -> signature option
