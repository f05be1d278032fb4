(* Schnorr group tests: group laws, membership validation, hashing. *)

module B = Bignum
module G = Schnorr_group

let ps = G.default ~bits:96 ()

let qtest ?(count = 50) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let gen_elt =
  QCheck2.Gen.(map (fun seed ->
      let rng = Prng.create ~seed in
      G.exp_g ps (G.random_exponent ps rng)) int)

let unit_tests =
  [ Alcotest.test_case "parameters are a safe-prime group" `Quick (fun () ->
        let rng = Prng.create ~seed:1 in
        Alcotest.(check bool) "p prime" true (Primes.is_probable_prime rng ps.G.p);
        Alcotest.(check bool) "q prime" true (Primes.is_probable_prime rng ps.G.q);
        Alcotest.(check bool) "p = 2q+1" true
          (B.equal ps.G.p (B.succ (B.shift_left ps.G.q 1)));
        Alcotest.(check bool) "g in group" true (G.is_element ps ps.G.g);
        Alcotest.(check bool) "g not one" false (G.elt_equal ps.G.g B.one));
    Alcotest.test_case "generator order" `Quick (fun () ->
        Alcotest.(check bool) "g^q = 1" true
          (G.elt_equal (G.exp ps ps.G.g ps.G.q) (G.one ps)));
    Alcotest.test_case "membership rejects" `Quick (fun () ->
        Alcotest.(check bool) "0" false (G.is_element ps B.zero);
        Alcotest.(check bool) "p" false (G.is_element ps ps.G.p);
        (* p - 1 has order 2, not in the subgroup *)
        Alcotest.(check bool) "p-1" false (G.is_element ps (B.pred ps.G.p)));
    Alcotest.test_case "Jacobi membership agrees with x^q = 1" `Quick
      (fun () ->
        (* [is_element] tests the Jacobi symbol; x^q = 1 by
           exponentiation is the reference.  Both 96- and 128-bit groups,
           every edge case, and 200 seeds of residues, non-residues and
           out-of-range residues. *)
        List.iter
          (fun ps ->
            let p = ps.G.p in
            let by_power x =
              B.sign x > 0 && B.lt x p
              && B.equal (B.pow_mod ~base:x ~exp:ps.G.q ~modulus:p) B.one
            in
            let agree what x =
              Alcotest.(check bool) what (by_power x) (G.is_element ps x)
            in
            let bits = B.numbits p in
            List.iter
              (fun (what, x) -> agree what x)
              [ ("0", B.zero); ("1", B.one); ("2", B.two); ("p-1", B.pred p);
                ("p", p); ("p+1", B.succ p); ("-1", B.neg B.one);
                ("-g", B.neg ps.G.g); ("-(p-1)", B.neg (B.pred p));
                ("2^bits", B.shift_left B.one bits);
                ("2^bits+1", B.succ (B.shift_left B.one bits));
                ("g+p", B.add ps.G.g p); ("2^(2 bits)", B.shift_left B.one (2 * bits)) ];
            let members = ref 0 and non_members = ref 0 in
            for seed = 1 to 200 do
              let rng = Prng.create ~seed in
              let r = B.succ (Prng.bignum_below rng (B.pred p)) in
              let residue = B.mul_mod r r p in
              let non_residue = B.sub p residue (* -1 is a non-residue *) in
              let uniform = Prng.bignum_below rng p in
              List.iter
                (fun x ->
                  agree (Printf.sprintf "seed %d: %s" seed (B.to_string x)) x;
                  if by_power x then incr members else incr non_members)
                [ residue; non_residue; uniform; B.add residue p;
                  B.neg residue ]
            done;
            Alcotest.(check bool) "both verdicts exercised" true
              (!members >= 200 && !non_members >= 600))
          [ ps; G.default () ]);
    Alcotest.test_case "unsafe_params refuses p <> 2q + 1" `Quick (fun () ->
        let g = B.of_int 4 in
        let refused p q =
          match G.unsafe_params ~p:(B.of_int p) ~q:(B.of_int q) ~g with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        Alcotest.(check bool) "23 = 2*11+1 accepted" false (refused 23 11);
        Alcotest.(check bool) "23, 5 refused" true (refused 23 5);
        (* q divides p - 1, but with cofactor 4 the residues are not
           the order-q subgroup *)
        Alcotest.(check bool) "29 = 4*7+1 refused" true (refused 29 7);
        Alcotest.(check bool) "p = q refused" true (refused 23 23);
        Alcotest.(check bool) "shared params pass" true
          (G.params_equal ps (G.unsafe_params ~p:ps.G.p ~q:ps.G.q ~g:ps.G.g)));
    Alcotest.test_case "hash_to_elt lands in group" `Quick (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check bool) s true
              (G.is_element ps (G.hash_to_elt ps ~domain:"t" [ s ])))
          [ ""; "a"; "coin-42"; String.make 1000 'x' ]);
    Alcotest.test_case "bytes roundtrip" `Quick (fun () ->
        let x = G.exp_g ps (B.of_int 12345) in
        match G.elt_of_bytes ps (G.elt_to_bytes ps x) with
        | Some y -> Alcotest.(check bool) "eq" true (G.elt_equal x y)
        | None -> Alcotest.fail "roundtrip failed")
  ]

let prop_tests =
  [ qtest "closure + membership" (QCheck2.Gen.pair gen_elt gen_elt) (fun (a, b) ->
        G.is_element ps (G.mul ps a b));
    qtest "associativity" (QCheck2.Gen.triple gen_elt gen_elt gen_elt)
      (fun (a, b, c) ->
        G.elt_equal (G.mul ps (G.mul ps a b) c) (G.mul ps a (G.mul ps b c)));
    qtest "commutativity" (QCheck2.Gen.pair gen_elt gen_elt) (fun (a, b) ->
        G.elt_equal (G.mul ps a b) (G.mul ps b a));
    qtest "inverse" gen_elt (fun a ->
        G.elt_equal (G.mul ps a (G.inv ps a)) (G.one ps));
    qtest "exp homomorphism"
      QCheck2.Gen.(triple gen_elt (int_bound 1000) (int_bound 1000))
      (fun (a, e1, e2) ->
        G.elt_equal
          (G.exp ps a (B.of_int (e1 + e2)))
          (G.mul ps (G.exp ps a (B.of_int e1)) (G.exp ps a (B.of_int e2))));
    qtest "exp_g matches exp" QCheck2.Gen.(int_bound 100000) (fun e ->
        G.elt_equal (G.exp_g ps (B.of_int e)) (G.exp ps ps.G.g (B.of_int e)));
    qtest "exp2 = mul of exps"
      QCheck2.Gen.(quad gen_elt (int_bound 1000000) gen_elt (int_bound 1000000))
      (fun (a, x, b, y) ->
        let x = B.of_int x and y = B.of_int y in
        G.elt_equal (G.exp2 ps a x b y)
          (G.mul ps (G.exp ps a x) (G.exp ps b y)));
    qtest "exp2 with prepared bases = mul of exps"
      QCheck2.Gen.(quad gen_elt (int_bound 1000000) gen_elt (int_bound 1000000))
      (fun (a, x, b, y) ->
        let x = B.of_int x and y = B.of_int y in
        G.prepare_base ps a;
        let reference = G.mul ps (G.exp ps a x) (G.exp ps b y) in
        let one_table = G.exp2 ps a x b y in
        G.prepare_base ps b;
        G.elt_equal one_table reference
        && G.elt_equal (G.exp2 ps a x b y) reference);
    qtest "fixed-base exp matches pow_mod" QCheck2.Gen.(pair gen_elt int)
      (fun (a, seed) ->
        let e = G.random_exponent ps (Prng.create ~seed) in
        G.prepare_base ps a;
        G.elt_equal (G.exp ps a e)
          (B.pow_mod ~base:a ~exp:(B.erem e ps.G.q) ~modulus:ps.G.p));
    qtest "multi_exp = folded product"
      QCheck2.Gen.(
        list_size (int_range 0 5) (pair gen_elt (int_bound 1000000)))
      (fun pairs ->
        let pairs = List.map (fun (b, e) -> (b, B.of_int e)) pairs in
        G.elt_equal (G.multi_exp ps pairs)
          (List.fold_left
             (fun acc (b, e) -> G.mul ps acc (G.exp ps b e))
             (G.one ps) pairs))
  ]

let suite = ("group", unit_tests @ prop_tests)
