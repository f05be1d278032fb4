(* Plain (non-threshold) Schnorr signatures over the shared group.

   Used where the protocols call for ordinary digital signatures from
   individual servers — e.g. the signed proposals inside the atomic
   broadcast protocol ("every party digitally signs the message it
   proposes for the current round", Section 3). *)

module B = Bignum
module G = Schnorr_group

type keypair = { sk : B.t; pk : G.elt }
type signature = { c : B.t; z : B.t }

let domain = "sintra/schnorr"

let generate (ps : G.params) (rng : Prng.t) : keypair =
  let sk = G.random_exponent ps rng in
  { sk; pk = G.exp_g ps sk }

let challenge ps ~a ~pk ~msg =
  G.hash_to_exponent ps ~domain:(domain ^ "/c")
    [ G.elt_to_bytes ps a; G.elt_to_bytes ps pk; msg ]

let sign (ps : G.params) (kp : keypair) (msg : string) : signature =
  Obs_crypto.sign ();
  (* Deterministic nonce (RFC 6979 style). *)
  let r =
    Ro.hash_to_bignum_below ~domain:(domain ^ "/nonce")
      [ B.to_bytes_be kp.sk; msg ] ps.G.q
  in
  let a = G.exp_g ps r in
  let c = challenge ps ~a ~pk:kp.pk ~msg in
  { c; z = B.add_mod r (B.mul_mod c kp.sk ps.G.q) ps.G.q }

let verify (ps : G.params) ~(pk : G.elt) (msg : string) (s : signature) : bool
    =
  Obs_crypto.verify ();
  B.sign s.z >= 0 && B.lt s.z ps.G.q
  &&
  (* a = g^z * pk^-c, written g^z * pk^(q-c): pk is a dealer-published
     subgroup element, so pk^q = 1 and no inversion is needed.  g is
     served by its fixed-base table, pk by the ordinary ladder, fused in
     one exp2. *)
  let a = G.exp2 ps ps.G.g s.z pk (B.sub ps.G.q s.c) in
  B.equal s.c (challenge ps ~a ~pk ~msg)

let to_bytes (ps : G.params) (s : signature) : string =
  let len = (B.numbits ps.G.q + 7) / 8 in
  B.to_bytes_be ~len s.c ^ B.to_bytes_be ~len s.z

let of_bytes (ps : G.params) (raw : string) : signature option =
  let len = (B.numbits ps.G.q + 7) / 8 in
  if String.length raw <> 2 * len then None
  else
    Some
      { c = B.of_bytes_be (String.sub raw 0 len);
        z = B.of_bytes_be (String.sub raw len len) }
