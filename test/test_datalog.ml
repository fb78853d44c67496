module T = Xic_datalog.Term
module P = Xic_datalog.Parser
module S = Xic_datalog.Store
module E = Xic_datalog.Eval
module Sub = Xic_datalog.Subsume

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let i n = T.Int n
let s x = T.Str x

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let test_store_basic () =
  let st = S.create () in
  Facts.add st "p" [ i 1; s "a" ];
  Facts.add st "p" [ i 2; s "b" ];
  Facts.add st "q" [ i 1 ];
  checki "cardinality p" 2 (Facts.cardinality st "p");
  checki "total" 3 (S.total_tuples st);
  Alcotest.(check (list string)) "relations" [ "p"; "q" ] (S.relations st);
  checkb "mem" true (Facts.mem st "p" [ i 1; s "a" ]);
  checkb "not mem" false (Facts.mem st "p" [ i 1; s "b" ])

let test_store_remove () =
  let st = S.create () in
  Facts.add st "p" [ i 1; s "a" ];
  Facts.add st "p" [ i 1; s "a" ];
  checkb "remove one" true (Facts.remove st "p" [ i 1; s "a" ]);
  checki "bag semantics" 1 (Facts.cardinality st "p");
  checkb "remove second" true (Facts.remove st "p" [ i 1; s "a" ]);
  checkb "remove missing" false (Facts.remove st "p" [ i 1; s "a" ]);
  checki "empty" 0 (Facts.cardinality st "p")

let test_store_index () =
  let st = S.create () in
  for k = 1 to 100 do
    Facts.add st "p" [ i k; s "x" ]
  done;
  checki "indexed lookup" 1 (List.length (Facts.with_key st "p" (i 42)));
  Facts.add st "p" [ i 42; s "y" ];
  checki "two under key" 2 (List.length (Facts.with_key st "p" (i 42)))

let test_store_copy_equal () =
  let st = S.of_facts [ ("p", [ i 1 ]); ("q", [ i 2; s "b" ]) ] in
  let st' = S.copy st in
  checkb "copies equal" true (S.equal st st');
  Facts.add st' "p" [ i 9 ];
  checkb "diverged" false (S.equal st st');
  (* ...and the fork is two-way: the original keeps mutating too *)
  Facts.add st "q" [ i 3; s "c" ];
  checkb "fork isolated" false (Facts.mem st' "q" [ i 3; s "c" ])

let frozen_exn = Invalid_argument
    "Xic_datalog.Store: frozen generation handles are immutable"

let test_store_freeze () =
  let st = S.of_facts [ ("p", [ i 1 ]); ("p", [ i 1 ]); ("q", [ i 2; s "b" ]) ] in
  let g = S.freeze st in
  checkb "handle frozen" true (S.is_frozen g);
  checkb "writer not frozen" false (S.is_frozen st);
  checkb "handle equal" true (S.equal st g);
  Alcotest.check_raises "add raises" frozen_exn (fun () ->
    Facts.add g "p" [ i 9 ]);
  Alcotest.check_raises "remove raises" frozen_exn (fun () ->
    ignore (Facts.remove g "p" [ i 1 ]));
  Alcotest.check_raises "compact raises" frozen_exn (fun () ->
    S.compact g);
  (* the handle still serves indexed reads, privately *)
  checki "indexed read" 2 (List.length (Facts.with_key g "p" (i 1)));
  (* writer churn is invisible to the handle *)
  ignore (Facts.remove st "p" [ i 1 ]);
  Facts.add st "q" [ i 7; s "z" ];
  checki "handle p stable" 2 (Facts.cardinality g "p");
  checkb "handle q stable" false (Facts.mem g "q" [ i 7; s "z" ]);
  (* a fresh suffix-sharing handle costs no unshared heap *)
  checki "pristine pin is free" 0 (S.unshared_bytes ~live:st (S.freeze st))

(* A tuple of another arity never matches an atom, longer or shorter. *)
let test_store_arity () =
  let st =
    S.of_facts [ ("p", [ i 1; i 2 ]); ("p", [ i 1; i 2; i 3 ]); ("p", [ i 4 ]) ]
  in
  checkb "no unary p(1, 2)" false
    (E.violated st (P.parse_denial ":- p(X), X = 1"));
  checki "one binary" 1 (List.length (E.violations st (P.parse_denial ":- p(X, Y)")));
  checki "one ternary" 1
    (List.length (E.violations st (P.parse_denial ":- p(1, Y, Z)")));
  checkb "no quaternary" false (E.violated st (P.parse_denial ":- p(X, Y, Z, W)"))

(* The store section a snapshot holds, hex-encoded.  The expected bytes
   are what the store wrote when a tuple was a [Term.const] list: one
   relation per store, so the relation table's order does not enter.
   The first has every arity from 0 to 4 and both kinds in one column
   (the mixed-shape encoding), the second one shape (the uniform one);
   each has a tombstoned tuple, which the image leaves out. *)
let test_serialize_golden () =
  let bytes st =
    let b = Buffer.create 64 in
    S.serialize st b;
    Buffer.contents b
  in
  let hex st =
    String.concat ""
      (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq (bytes st))))
  in
  let mixed = S.create () in
  List.iter (Facts.add mixed "g")
    [ []; [ i 5 ]; [ s "5"; i (-3) ]; [ s ""; i max_int; s "x y" ];
      [ i min_int; s "5"; i 0; s "\xc3\xa9" ]; [ i 7; i 8 ] ];
  ignore (Facts.remove mixed "g" [ i 7; i 8 ]);
  checks "mixed shapes"
    "08023504c3a900067820790202670aff0001000a020100000503010400feffffffffffffff7f01060400ffffffffffffffff7f010000000102"
    (hex mixed);
  let uniform = S.create () in
  List.iter (Facts.add uniform "u")
    [ [ i 1; i 0; i (-1); s "a" ]; [ i 2; i 1; i 1; s "a" ];
      [ i 4; i 3; i 1; s "b" ]; [ i 3; i 2; i 1; s "" ] ];
  ignore (Facts.remove uniform "u" [ i 4; i 3; i 1; s "b" ]);
  checks "one shape" "04000261020275060400000001020001020402020206040200" (hex uniform);
  let back st = S.deserialize (Xic_symbol.Wire.cursor (bytes st)) in
  checkb "mixed round trip" true (S.equal mixed (back mixed));
  checkb "uniform round trip" true (S.equal uniform (back uniform))

(* [unshared_bytes] estimates what a handle keeps alive once a
   compaction ends its sharing with the writer: its log cells and tuple
   arrays, which [Obj.reachable_words] measures exactly for a store of
   integers. *)
let test_unshared_bytes_estimate () =
  let st =
    S.of_facts
      (List.init 300 (fun k ->
           if k mod 3 = 0 then ("p", [ i k; i (k + 1); i 2; i 3 ]) else ("p", [ i k; i 0 ])))
  in
  let h = S.freeze st in
  ignore (Facts.remove st "p" [ i 0; i 1; i 2; i 3 ]);
  S.compact st;
  let estimate = S.unshared_bytes ~live:st h in
  let measured = 8 * Obj.reachable_words (Obj.repr (S.tuples_sym h (Facts.sym "p"))) in
  checkb
    (Printf.sprintf "estimate %d within 15%% of %d" estimate measured)
    true
    (abs (estimate - measured) * 100 <= 15 * measured)

(* [Value] agrees with [Term.const] on equality, order, every
   comparison operator and the round trip.  Pairs are often equal, or
   an integer against its own printed form. *)
let prop_value_agrees =
  let open QCheck2.Gen in
  let int_v =
    frequency
      [ (4, int_range (-20) 20); (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1 ]);
        (1, int) ]
  in
  let str_v =
    frequency
      [ (2, oneofl [ ""; "5"; "-3"; "05"; "a"; "ab"; " "; "\xc3\xa9" ]);
        (2, map string_of_int int_v);
        (1, string_size ~gen:(char_range 'a' 'c') (int_bound 3)) ]
  in
  let const = oneof [ map i int_v; map s str_v ] in
  let other c =
    frequency
      [ (3, const); (1, return c);
        (1,
         return
           (match c with
            | T.Int n -> s (string_of_int n)
            | T.Str x -> (match int_of_string_opt x with Some n -> i n | None -> s x))) ]
  in
  let pair = const >>= fun a -> map (fun b -> (a, b)) (other a) in
  QCheck2.Test.make ~name:"Value agrees with Term.const" ~count:2000
    ~print:(fun (a, b) -> T.const_str a ^ " vs " ^ T.const_str b)
    pair
    (fun (a, b) ->
      let module V = Xic_datalog.Value in
      let va = V.of_const a and vb = V.of_const b in
      let sign n = compare n 0 in
      V.equal va vb = (a = b)
      && ((not (a = b)) || V.hash va = V.hash vb)
      && sign (V.compare va vb) = sign (compare a b)
      && List.for_all
           (fun op -> V.cmp op va vb = T.eval_cmp op a b)
           [ T.Eq; T.Neq; T.Lt; T.Le; T.Gt; T.Ge ]
      && V.to_const va = a
      && V.to_const vb = b)

(* ------------------------------------------------------------------ *)
(* Parser and printing                                                 *)
(* ------------------------------------------------------------------ *)

let test_parse_denial () =
  let d = P.parse_denial {| :- rev(Ir, _, _, R), sub(Is, _, Ir, _), auts(_, _, Is, R) |} in
  checki "three literals" 3 (List.length d.T.body);
  checks "printed" ":- rev(Ir, _, _, R), sub(Is, _, Ir, _), auts(_, _, Is, R)"
    (T.denial_str d)

let test_parse_features () =
  let d = P.parse_denial {| :- p(%i, "x", 3), Y != %t, cnt(q(_, Y)) > 4, not r(Y) |} in
  checki "four literals" 4 (List.length d.T.body);
  Alcotest.(check (list string)) "params" [ "i"; "t" ] (T.denial_params d)

let test_parse_anon_distinct () =
  (* each _ is a fresh variable: p(_, _) must not force equal columns *)
  let d = P.parse_denial {| :- p(_, _) |} in
  let st = S.of_facts [ ("p", [ i 1; i 2 ]) ] in
  checkb "anonymous are independent" true (E.violated st d)

let test_parse_errors () =
  let fails x =
    match P.parse_denial x with exception P.Parse_error _ -> true | _ -> false
  in
  checkb "bare lowercase term" true (fails ":- p(X), X = abc");
  checkb "unclosed" true (fails ":- p(X");
  checkb "missing cmp" true (fails ":- X Y");
  checkb "trailing" true (fails ":- p(X) p(Y)")

let test_roundtrip () =
  List.iter
    (fun src ->
      let d = P.parse_denial src in
      let d2 = P.parse_denial (T.denial_str d) in
      checkb src true (Sub.variant d d2))
    [
      ":- p(X, Y), p(X, Z), Y != Z";
      ":- rev(Ir, _, _, _), cntd(sub(_, _, Ir, _)) > 4";
      ":- q(X), sum(V; r(X, V)) >= 10";
      ":- person(%i, N), N != %n";
      ":- p(X), not q(X)";
      ":- cntd(It; track(It, _, _, _), rev(_, _, It, R)) > 3, rev(_, _, _, R)";
    ]

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let issn_store () =
  S.of_facts
    [ ("p", [ s "i1"; s "A" ]); ("p", [ s "i2"; s "B" ]); ("p", [ s "i3"; s "C" ]) ]

let test_eval_join () =
  let st = issn_store () in
  let d = P.parse_denial ":- p(X, Y), p(X, Z), Y != Z" in
  checkb "consistent" false (E.violated st d);
  Facts.add st "p" [ s "i1"; s "D" ];
  checkb "violated after dup" true (E.violated st d)

let test_eval_constants () =
  let st = issn_store () in
  checkb "constant match" true (E.violated st (P.parse_denial {| :- p("i2", _) |}));
  checkb "constant miss" false (E.violated st (P.parse_denial {| :- p("i9", _) |}))

let test_eval_negation () =
  let st = issn_store () in
  checkb "not finds missing" true
    (E.violated st (P.parse_denial {| :- p(X, _), not p(X, "A") |}));
  Facts.add st "q" [ s "i1" ];
  checkb "anti-join" true
    (E.violated st (P.parse_denial {| :- p(X, _), not q(X) |}))

let test_eval_negation_local_vars () =
  (* negation with purely-local anonymous variables: ¬∃ semantics *)
  let st = S.of_facts [ ("r", [ i 1 ]); ("w", [ i 2; i 9 ]) ] in
  checkb "no w for r=1" true
    (E.violated st (P.parse_denial ":- r(X), not w(X, _)"));
  Facts.add st "w" [ i 1; i 5 ];
  checkb "now satisfied" false
    (E.violated st (P.parse_denial ":- r(X), not w(X, _)"))

let test_eval_comparison_binding () =
  let st = issn_store () in
  checkb "eq binds" true (E.violated st (P.parse_denial {| :- p(X, Y), Y = "B" |}));
  checkb "order-insensitive" true
    (E.violated st (P.parse_denial {| :- Y = "B", p(X, Y) |}))

let test_eval_cmp_ops () =
  let st = S.of_facts [ ("n", [ i 5 ]) ] in
  let t op expect = checkb op expect (E.violated st (P.parse_denial (":- n(X), X " ^ op ^ " 5"))) in
  t "=" true; t "!=" false; t "<" false; t "<=" true; t ">" false; t ">=" true

let test_eval_params () =
  let st = issn_store () in
  let d = P.parse_denial {| :- p(%i, Y), Y != %t |} in
  checkb "param hit" true
    (E.violated ~params:[ ("i", s "i1"); ("t", s "Z") ] st d);
  checkb "param miss" false
    (E.violated ~params:[ ("i", s "i1"); ("t", s "A") ] st d);
  (match E.violated st d with
   | exception E.Unsafe _ -> ()
   | _ -> Alcotest.fail "unresolved params must be rejected")

let test_eval_violations_all () =
  let st = issn_store () in
  let d = P.parse_denial ":- p(X, _)" in
  checki "three witnesses" 3 (List.length (E.violations st d))

let test_eval_unsafe () =
  let st = issn_store () in
  (match E.violated st (P.parse_denial ":- X != Y") with
   | exception E.Unsafe _ -> ()
   | _ -> Alcotest.fail "unbound comparison must be unsafe")

(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)
(* ------------------------------------------------------------------ *)

let agg_store () =
  S.of_facts
    [
      ("rev", [ i 1; i 1; i 0; s "G" ]);
      ("rev", [ i 2; i 2; i 0; s "M" ]);
      ("sub", [ i 10; i 1; i 1; s "T1" ]);
      ("sub", [ i 11; i 2; i 1; s "T2" ]);
      ("sub", [ i 12; i 3; i 1; s "T3" ]);
      ("sub", [ i 13; i 1; i 2; s "T4" ]);
    ]

let test_agg_cnt () =
  let st = agg_store () in
  checkb "cnt > 2 for rev 1" true
    (E.violated st (P.parse_denial ":- rev(Ir, _, _, _), cnt(sub(_, _, Ir, _)) > 2"));
  checkb "cnt > 3 nobody" false
    (E.violated st (P.parse_denial ":- rev(Ir, _, _, _), cnt(sub(_, _, Ir, _)) > 3"))

let test_agg_cntd_distinct () =
  let st = agg_store () in
  (* duplicate tuple counts twice for cnt, once for cntd *)
  Facts.add st "sub" [ i 13; i 1; i 2; s "T4" ];
  checkb "cnt sees dup" true
    (E.violated st (P.parse_denial ":- rev(Ir, _, _, M), M = \"M\", cnt(sub(_, _, Ir, _)) > 1"));
  checkb "cntd ignores dup" false
    (E.violated st (P.parse_denial ":- rev(Ir, _, _, M), M = \"M\", cntd(sub(_, _, Ir, _)) > 1"))

let test_agg_target_distinct () =
  let st =
    S.of_facts
      [ ("e", [ i 1; s "x" ]); ("e", [ i 2; s "x" ]); ("e", [ i 3; s "y" ]) ]
  in
  checkb "cntd over target var" true
    (E.violated st (P.parse_denial ":- cntd(V; e(_, V)) = 2, e(_, _)"))

let test_agg_sum_max_min () =
  let st = S.of_facts [ ("v", [ i 1; i 10 ]); ("v", [ i 2; i 30 ]); ("v", [ i 3; i 10 ]) ] in
  checkb "sum" true (E.violated st (P.parse_denial ":- sum(X; v(_, X)) = 50, v(_, _)"));
  checkb "sumd" true (E.violated st (P.parse_denial ":- sumd(X; v(_, X)) = 40, v(_, _)"));
  checkb "max" true (E.violated st (P.parse_denial ":- max(X; v(_, X)) = 30, v(_, _)"));
  checkb "min" true (E.violated st (P.parse_denial ":- min(X; v(_, X)) = 10, v(_, _)"));
  (* an extremum over no rows does not hold, even when its group is
     bound before any positive literal runs *)
  checkb "max over no rows" false
    (E.violated st (P.parse_denial ":- v(4, _), max(X; v(4, X)) > 0"));
  checkb "min over no rows" false
    (E.violated st (P.parse_denial ":- min(X; v(4, X)) < 100"))

let test_agg_multi_atom_join () =
  (* the Example 2 shape: distinct tracks a reviewer name serves in *)
  let st =
    S.of_facts
      [
        ("track", [ i 1; i 1; i 0; s "DB" ]);
        ("track", [ i 2; i 2; i 0; s "IR" ]);
        ("rev", [ i 10; i 1; i 1; s "G" ]);
        ("rev", [ i 11; i 1; i 2; s "G" ]);
        ("rev", [ i 12; i 2; i 2; s "M" ]);
      ]
  in
  let d k =
    P.parse_denial
      (Printf.sprintf
         ":- rev(_, _, _, R), cntd(It; track(It, _, _, _), rev(_, _, It, R)) > %d" k)
  in
  checkb "G serves 2 tracks" true (E.violated st (d 1));
  checkb "nobody serves 3" false (E.violated st (d 2))

let test_agg_empty_group () =
  let st = S.of_facts [ ("rev", [ i 1; i 1; i 0; s "G" ]) ] in
  checkb "cnt over empty = 0" true
    (E.violated st (P.parse_denial ":- rev(Ir, _, _, _), cnt(sub(_, _, Ir, _)) = 0"))

(* ------------------------------------------------------------------ *)
(* Subsumption                                                         *)
(* ------------------------------------------------------------------ *)

let sub_test phi psi expect () =
  checkb
    (Printf.sprintf "%s subsumes %s" phi psi)
    expect
    (Sub.subsumes (P.parse_denial phi) (P.parse_denial psi))

let test_subsume_instance = sub_test ":- p(X, Y)" {| :- p("a", Z), q(Z) |} true
let test_subsume_reverse = sub_test {| :- p("a", Z), q(Z) |} ":- p(X, Y)" false
let test_subsume_join = sub_test ":- p(X), q(X)" ":- p(Y), q(Y), r(Y)" true
let test_subsume_join_fail = sub_test ":- p(X), q(X)" ":- p(Y), q(Z)" false
let test_subsume_param = sub_test ":- p(%i, _)" ":- p(%i, Y), q(Y)" true
let test_subsume_param_mismatch = sub_test ":- p(%i, _)" ":- p(%j, Y)" false

let test_subsume_cmp_symmetry () =
  checkb "eq sym" true
    (Sub.subsumes (P.parse_denial ":- p(X, Y), X = Y") (P.parse_denial ":- p(A, B), B = A"));
  checkb "neq sym" true
    (Sub.subsumes (P.parse_denial ":- p(X, Y), X != Y") (P.parse_denial ":- p(A, B), B != A"))

let test_subsume_cmp_normalize () =
  checkb "gt as lt" true
    (Sub.subsumes (P.parse_denial ":- p(X, Y), X < Y") (P.parse_denial ":- p(A, B), B > A"))

let test_subsume_agg_weakening () =
  let phi = P.parse_denial ":- rev(Ir, _, _, _), cntd(sub(_, _, Ir, _)) > 3" in
  let psi = P.parse_denial ":- rev(Ir, _, _, _), cntd(sub(_, _, Ir, _)) > 4" in
  checkb "weaker bound subsumes" true (Sub.subsumes phi psi);
  checkb "not conversely" false (Sub.subsumes psi phi)

let test_variant () =
  let a = P.parse_denial ":- p(X, Y), q(Y)" in
  let b = P.parse_denial ":- p(U, V), q(V)" in
  checkb "variants" true (Sub.variant a b);
  let c = P.parse_denial ":- p(X, X), q(X)" in
  checkb "not variant" false (Sub.variant a c)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Random ground stores over p/2, q/1 with small constants. *)
let gen_store =
  let open QCheck2.Gen in
  let const = map (fun n -> i n) (int_bound 3) in
  let fact =
    oneof
      [ map2 (fun a b -> ("p", [ a; b ])) const const;
        map (fun a -> ("q", [ a ])) const ]
  in
  map S.of_facts (list_size (int_bound 12) fact)

let prop_violation_is_witness =
  QCheck2.Test.make ~name:"violation returns a real witness" ~count:200 gen_store
    (fun st ->
      let d = P.parse_denial ":- p(X, Y), q(Y)" in
      match E.violation st d with
      | None -> not (E.violated st d)
      | Some binds ->
        let x = List.assoc "X" binds and y = List.assoc "Y" binds in
        Facts.mem st "p" [ x; y ] && Facts.mem st "q" [ y ])

let prop_subsumption_semantic =
  (* if phi subsumes psi then every store violating psi violates phi *)
  QCheck2.Test.make ~name:"subsumption implies semantic entailment" ~count:200
    gen_store (fun st ->
      let phi = P.parse_denial ":- p(X, Y)" in
      let psi = P.parse_denial ":- p(X, X), q(X)" in
      (not (Sub.subsumes phi psi)) || (not (E.violated st psi)) || E.violated st phi)

let prop_cnt_matches_length =
  QCheck2.Test.make ~name:"cnt agrees with tuple count" ~count:200 gen_store
    (fun st ->
      let n = Facts.cardinality st "p" in
      let d = P.parse_denial (Printf.sprintf ":- q(_), cnt(p(_, _)) != %d" n) in
      (* if q is non-empty the aggregate literal must match exactly n *)
      Facts.cardinality st "q" = 0 || not (E.violated st d))

(* ------------------------------------------------------------------ *)
(* Second wave                                                         *)
(* ------------------------------------------------------------------ *)

(* The solver's answer must not depend on body literal order. *)
let prop_order_independence =
  let open QCheck2.Gen in
  let shuffled_pair =
    let body = ":- p(X, Y), q(Y), X != Y, not p(Y, X)" in
    map (fun seed -> (body, seed)) (int_bound 1000)
  in
  QCheck2.Test.make ~name:"literal order independence" ~count:200
    (QCheck2.Gen.pair gen_store shuffled_pair)
    (fun (st, (body, seed)) ->
      let d = P.parse_denial body in
      let permuted =
        (* deterministic pseudo-shuffle of the body by the seed *)
        let arr = Array.of_list d.T.body in
        let n = Array.length arr in
        let s = ref seed in
        for i = n - 1 downto 1 do
          s := ((!s * 48271) + 11) mod 233280;
          let j = !s mod (i + 1) in
          let t = arr.(i) in
          arr.(i) <- arr.(j);
          arr.(j) <- t
        done;
        { d with T.body = Array.to_list arr }
      in
      E.violated st d = E.violated st permuted)

(* Aggregate atoms are joined most-bound-first, not in source order, so
   permuting an aggregate's atom list must change neither the rows it
   ranges over nor any verdict over it, for every operator. *)
let prop_agg_atom_order =
  let open QCheck2.Gen in
  let const = map (fun n -> i n) (int_bound 3) in
  let fact =
    oneof
      [ map2 (fun a b -> ("p", [ a; b ])) const const;
        map2 (fun a b -> ("q", [ a; b ])) const const;
        map (fun a -> ("r", [ a ])) const ]
  in
  QCheck2.Test.make ~name:"aggregate atom order independence" ~count:300
    (triple (list_size (int_bound 16) fact) (int_bound 5) (int_bound 1000))
    (fun (facts, k, seed) ->
      let st = S.of_facts facts in
      let atoms = "p(W, Y), q(Y, Z), r(Z)" in
      let permute (d : T.denial) =
        let shuffle l =
          let arr = Array.of_list l in
          let s = ref seed in
          for i = Array.length arr - 1 downto 1 do
            s := ((!s * 48271) + 11) mod 233280;
            let j = !s mod (i + 1) in
            let t = arr.(i) in
            arr.(i) <- arr.(j);
            arr.(j) <- t
          done;
          Array.to_list arr
        in
        { d with
          T.body =
            List.map
              (function
                | T.Agg g -> T.Agg { g with T.atoms = shuffle g.T.atoms }
                | l -> l)
              d.T.body }
      in
      let verdict d = try Ok (E.violated st d) with E.Unsafe _ -> Error () in
      let rows atoms =
        List.sort compare (List.map (List.sort compare) (E.matches st atoms))
      in
      let parsed = P.parse_denial (Printf.sprintf ":- cnt(%s) > 0" atoms) in
      let agg_atoms (d : T.denial) =
        List.concat_map (function T.Agg g -> g.T.atoms | _ -> []) d.T.body
      in
      rows (agg_atoms parsed) = rows (agg_atoms (permute parsed))
      && List.for_all
           (fun src ->
             let d = P.parse_denial src in
             verdict d = verdict (permute d))
           (List.concat_map
              (fun agg ->
                List.map
                  (fun cmp -> Printf.sprintf ":- r(W), %s %s %d" agg cmp k)
                  [ ">"; "<"; "=" ])
              [ Printf.sprintf "cnt(%s)" atoms;
                Printf.sprintf "cntd(Y; %s)" atoms;
                Printf.sprintf "cntd(%s)" atoms;
                Printf.sprintf "sum(Z; %s)" atoms;
                Printf.sprintf "max(Y; %s)" atoms;
                Printf.sprintf "min(Z; %s)" atoms ]))

(* ------------------------------------------------------------------ *)
(* Differential check against a brute-force reference                 *)
(* ------------------------------------------------------------------ *)

(* The reference evaluator: every tuple of each atom's relation through
   [Facts.tuples] (no index), positive atoms joined in source order (no
   scheduling), then binding equalities, then every other literal
   tested on the complete binding.  A negation holds when no tuple
   matches; an aggregate groups the rows of its conjunction under the
   binding. *)
let ref_unify env (args : T.term list) (tup : T.const list) =
  if List.length args <> List.length tup then None
  else
    List.fold_left2
      (fun acc t c ->
        match (acc, t) with
        | None, _ -> None
        | Some env, T.Const k -> if k = c then Some env else None
        | Some env, T.Var v ->
          (match List.assoc_opt v env with
           | Some c' -> if c' = c then Some env else None
           | None -> Some ((v, c) :: env))
        | Some _, T.Param _ -> None)
      (Some env) args tup

let ref_join st env (atoms : T.atom list) =
  List.fold_left
    (fun envs (a : T.atom) ->
      List.concat_map
        (fun env -> List.filter_map (ref_unify env a.T.args) (Facts.tuples st a.T.pred))
        envs)
    [ env ] atoms

let ref_value env = function
  | T.Const c -> c
  | T.Var v -> List.assoc v env
  | T.Param p -> failwith ("reference: parameter " ^ p)

let ref_agg st env (g : T.agg) =
  let rows = ref_join st env g.T.atoms in
  let targets () = List.map (fun row -> ref_value row (Option.get g.T.target)) rows in
  let ints = List.map (function T.Int n -> n | T.Str x -> int_of_string x) in
  let value =
    match g.T.op with
    | T.Cnt -> Some (T.Int (List.length rows))
    | T.CntD when g.T.target = None ->
      let local row = List.sort compare (List.filter (fun (v, _) -> not (List.mem_assoc v env)) row) in
      Some (T.Int (List.length (List.sort_uniq compare (List.map local rows))))
    | T.CntD -> Some (T.Int (List.length (List.sort_uniq compare (targets ()))))
    | T.Sum -> Some (T.Int (List.fold_left ( + ) 0 (ints (targets ()))))
    | T.SumD -> Some (T.Int (List.fold_left ( + ) 0 (ints (List.sort_uniq compare (targets ())))))
    | T.Max -> (match targets () with [] -> None | c :: cs -> Some (List.fold_left max c cs))
    | T.Min -> (match targets () with [] -> None | c :: cs -> Some (List.fold_left min c cs))
  in
  match value with
  | None -> false
  | Some v -> T.eval_cmp g.T.acmp v (ref_value env g.T.bound)

let reference st (d : T.denial) =
  let positives = List.filter_map (function T.Rel a -> Some a | _ -> None) d.T.body in
  let binds env = function
    | T.Cmp (T.Eq, T.Var v, t) when not (List.mem_assoc v env) -> Some (v, ref_value env t)
    | _ -> None
  in
  ref_join st [] positives
  |> List.map (fun env ->
         List.fold_left
           (fun env l -> match binds env l with Some b -> b :: env | None -> env)
           env d.T.body)
  |> List.filter (fun env ->
         List.for_all
           (function
             | T.Rel _ -> true
             | T.Cmp (op, a, b) -> T.eval_cmp op (ref_value env a) (ref_value env b)
             | T.Not a ->
               List.for_all
                 (fun tup -> ref_unify env a.T.args tup = None)
                 (Facts.tuples st a.T.pred)
             | T.Agg g -> ref_agg st env g)
           d.T.body)

(* Random small stores and random safe denials: positive atoms over X,
   Y, Z, W, constants and anonymous variables; comparisons and one
   binding equality over bound terms; a negation with locals L, M; an
   aggregate under every operator and bound operator, grouped by bound
   variables, with locals A, B.  Unbound uses of X..W become constants,
   so every denial can be scheduled. *)
type tspec = V of int | C of int | Anon | Loc of int

let gen_differential =
  let open QCheck2.Gen in
  let const = map (fun n -> i n) (int_bound 3) in
  let fact =
    oneof
      [ map2 (fun a b -> ("p", [ a; b ])) const const;
        map2 (fun a b -> ("q", [ a; b ])) const const;
        map (fun a -> ("r", [ a ])) const;
        (* another arity: never matches an atom over the relation *)
        map (fun a -> ("p", [ a ])) const ]
  in
  let pos_arg = frequency [ (6, map (fun k -> V k) (int_bound 3)); (2, map (fun k -> C k) (int_bound 3)); (1, return Anon) ] in
  let outer_arg = frequency [ (4, map (fun k -> V k) (int_bound 3)); (1, map (fun k -> C k) (int_bound 3)) ] in
  let atom arg =
    oneof
      [ map2 (fun a b -> ("p", [ a; b ])) arg arg;
        map2 (fun a b -> ("q", [ a; b ])) arg arg;
        map (fun a -> ("r", [ a ])) arg ]
  in
  let neg_arg = frequency [ (3, outer_arg); (3, map (fun k -> Loc k) (int_bound 1)); (1, return Anon) ] in
  let agg_arg = frequency [ (3, outer_arg); (3, map (fun k -> Loc (2 + k)) (int_bound 1)); (1, return Anon) ] in
  let cmp = oneofl [ T.Eq; T.Neq; T.Lt; T.Le; T.Gt; T.Ge ] in
  let agg =
    map
      (fun (op, atoms, (acmp, bound, pick)) -> (op, atoms, acmp, bound, pick))
      (triple
         (oneofl [ T.Cnt; T.CntD; T.Sum; T.SumD; T.Max; T.Min ])
         (list_size (int_range 1 2) (atom agg_arg))
         (triple cmp outer_arg (int_bound 7)))
  in
  let denial =
    map
      (fun ((pos, cmps, eq), (neg, ag)) -> (pos, cmps, eq, neg, ag))
      (pair
         (triple
            (list_size (int_range 1 3) (atom pos_arg))
            (list_size (int_bound 2) (triple cmp outer_arg outer_arg))
            (option outer_arg))
         (pair (option (atom neg_arg)) (option agg)))
  in
  pair (list_size (int_bound 12) fact) denial

let differential_denial (pos, cmps, eq, neg, ag) =
  let bound = List.concat_map (fun (_, args) -> List.filter_map (function V k -> Some k | _ -> None) args) pos in
  let anon = ref 0 in
  let term = function
    | V k when List.mem k bound -> T.Var [| "X"; "Y"; "Z"; "W" |].(k)
    | V k | C k -> T.Const (i k)
    | Loc k -> T.Var [| "L"; "M"; "A"; "B" |].(k)
    | Anon ->
      incr anon;
      T.Var (Printf.sprintf "_%d" !anon)
  in
  let atom (pred, args) = { T.pred; args = List.map term args } in
  let body =
    List.map (fun a -> T.Rel (atom a)) pos
    @ List.map (fun (op, a, b) -> T.Cmp (op, term a, term b)) cmps
    @ (match eq with Some t -> [ T.Cmp (T.Eq, T.Var "E", term t) ] | None -> [])
    @ (match neg with Some a -> [ T.Not (atom a) ] | None -> [])
    @
    match ag with
    | None -> []
    | Some (op, atoms, acmp, b, pick) ->
      let atoms = List.map atom atoms in
      let vars = List.sort_uniq compare (List.concat_map T.atom_vars atoms) in
      let target =
        match (op, vars) with
        | T.Cnt, _ -> None
        | T.CntD, _ when pick mod 2 = 0 -> None
        | _, [] -> Some (T.Const (i 1))
        | _, vs -> Some (T.Var (List.nth vs (pick mod List.length vs)))
      in
      [ T.Agg { T.op; target; atoms; acmp; bound = term b } ]
  in
  T.denial body

let prop_differential =
  QCheck2.Test.make ~name:"compiled plans agree with a brute-force reference" ~count:400
    ~print:(fun (facts, spec) ->
      let st = S.of_facts facts in
      Printf.sprintf "%s\nstore: %s" (T.denial_str (differential_denial spec))
        (String.concat "; "
           (List.map (fun (p, t) -> p ^ "(" ^ String.concat "," (List.map T.const_str t) ^ ")")
              (S.to_facts st))))
    gen_differential
    (fun (facts, spec) ->
      let st = S.of_facts facts in
      let d = differential_denial spec in
      let named env = List.sort compare (List.filter (fun (v, _) -> v.[0] <> '_') env) in
      let set envs = List.sort_uniq compare (List.map named envs) in
      let expected = reference st d in
      let positives = List.filter_map (function T.Rel a -> Some a | _ -> None) d.T.body in
      let rows envs = List.sort compare (List.map (List.sort compare) envs) in
      (* a plan with inputs answers for the denial with them substituted *)
      let inputs_agree =
        let vs = List.sort_uniq compare (T.atom_vars (List.hd positives)) in
        let plan = E.compile ~inputs:vs d in
        let rec combos = function
          | [] -> [ [] ]
          | _ :: rest -> List.concat_map (fun c -> List.map (fun l -> i c :: l) (combos rest)) [ 0; 1; 2; 3 ]
        in
        List.for_all
          (fun values ->
            let theta =
              Xic_datalog.Subst.of_list (List.map2 (fun v c -> (v, T.Const c)) vs values)
            in
            E.exists plan st (Facts.tuple values)
            = (reference st (Xic_datalog.Subst.apply_denial theta d) <> []))
          (combos vs)
      in
      E.violated st d = (expected <> [])
      && set (E.violations st d) = set expected
      && rows (E.matches st positives) = rows (ref_join st [] positives)
      && inputs_agree)

(* A frozen generation must be bit-stable — byte-identical serialized
   image — under arbitrary writer mutations, including the compactions
   they trigger; and rolling every mutation back (inverse ops, reverse
   order — exactly what [Repository.rollback] replays) must bring the
   writer back to multiset equality with the generation. *)
let prop_frozen_generation_stable =
  let open QCheck2.Gen in
  let const = map (fun n -> i n) (int_bound 3) in
  let fact =
    oneof
      [ map2 (fun a b -> ("p", [ a; b ])) const const;
        map (fun a -> ("q", [ a ])) const ]
  in
  let op =
    frequency
      [ (4, map (fun f -> `Add f) fact);
        (3, map (fun f -> `Remove f) fact);
        (1, return `Clear_q);
        (1, map (fun c -> `Drain_refill_q c) const);
        (1, return `Compact) ]
  in
  QCheck2.Test.make ~name:"frozen generation bit-stable under writer churn"
    ~count:200
    (pair gen_store (list_size (int_bound 24) op))
    (fun (st, ops) ->
      let image s =
        let b = Buffer.create 256 in
        S.serialize s b;
        Buffer.contents b
      in
      let gen = S.freeze st in
      let before = image gen in
      let undo =
        List.concat_map
          (fun op ->
            match op with
            | `Add (p, tup) ->
              Facts.add st p tup;
              [ `Unadd (p, tup) ]
            | `Remove (p, tup) ->
              if Facts.remove st p tup then [ `Unremove (p, tup) ] else []
            | `Clear_q ->
              let saved = Facts.tuples st "q" in
              S.clear_sym st (Xic_symbol.Symbol.intern "q");
              [ `Unclear saved ]
            | `Drain_refill_q c ->
              (* removing the last live tuple drops the relation's log,
                 tombstones and indexes at once; the handle keeps its own *)
              let drained = Facts.tuples st "q" in
              List.iter (fun tup -> ignore (Facts.remove st "q" tup : bool)) drained;
              assert (Facts.cardinality st "q" = 0);
              Facts.add st "q" [ c ];
              List.map (fun tup -> `Unremove ("q", tup)) drained
              @ [ `Unadd ("q", [ c ]) ]
            | `Compact ->
              S.compact st;
              [])
          ops
      in
      let mid = image gen in
      List.iter
        (fun u ->
          match u with
          | `Unadd (p, tup) -> ignore (Facts.remove st p tup)
          | `Unremove (p, tup) -> Facts.add st p tup
          | `Unclear saved -> List.iter (Facts.add st "q") saved)
        (List.rev undo);
      let after = image gen in
      S.is_frozen gen
      && String.equal before mid
      && String.equal before after
      && S.equal st gen)

let test_eval_param_only_atom () =
  let st = S.of_facts [ ("p", [ i 7 ]) ] in
  let d = P.parse_denial ":- p(%k)" in
  checkb "hit" true (E.violated ~params:[ ("k", i 7) ] st d);
  checkb "miss" false (E.violated ~params:[ ("k", i 8) ] st d)

let test_eval_cross_product () =
  (* no shared variables: plain cross product must still work *)
  let st = S.of_facts [ ("p", [ i 1 ]); ("q", [ i 2 ]) ] in
  checkb "cross" true (E.violated st (P.parse_denial ":- p(X), q(Y)"))

let test_eval_self_join_same_tuple () =
  (* p(X,Y), p(Y,X) satisfied by a symmetric pair or a diagonal tuple *)
  let st = S.of_facts [ ("p", [ i 1; i 2 ]) ] in
  checkb "no symmetric pair" false (E.violated st (P.parse_denial ":- p(X, Y), p(Y, X)"));
  Facts.add st "p" [ i 2; i 1 ];
  checkb "symmetric pair" true (E.violated st (P.parse_denial ":- p(X, Y), p(Y, X)"))

let test_eval_agg_bound_from_var () =
  (* the aggregate bound may be a variable bound by another literal *)
  let st = S.of_facts [ ("lim", [ i 2 ]); ("p", [ i 1 ]); ("p", [ i 2 ]); ("p", [ i 3 ]) ] in
  checkb "bound from relation" true
    (E.violated st (P.parse_denial ":- lim(K), cnt(p(_)) > K"))

let test_subsume_not_literal () =
  let phi = P.parse_denial ":- p(X), not q(X)" in
  let psi = P.parse_denial ":- p(Y), not q(Y), r(Y)" in
  checkb "negation matched" true (Sub.subsumes phi psi);
  let psi2 = P.parse_denial ":- p(Y), q(Y)" in
  checkb "polarity respected" false (Sub.subsumes phi psi2)

let test_subsume_multiset () =
  (* two distinct literals of phi may map onto one literal of psi *)
  let phi = P.parse_denial ":- p(X, Y), p(Z, Y)" in
  let psi = P.parse_denial ":- p(A, B)" in
  checkb "non-injective map" true (Sub.subsumes phi psi)

let test_rename_apart () =
  let d = P.parse_denial ":- p(X), q(X)" in
  let r = Xic_datalog.Subst.rename_denial d in
  checkb "still a variant" true (Sub.variant d r);
  checkb "no shared names" true
    (List.for_all (fun v -> not (List.mem v (T.denial_vars d))) (T.denial_vars r))

let test_params_partial_application () =
  let d = P.parse_denial ":- p(%a, %b)" in
  let d' = Xic_datalog.Subst.apply_params_denial [ ("a", i 1) ] d in
  Alcotest.(check (list string)) "b remains" [ "b" ] (T.denial_params d')

let () =
  Alcotest.run "datalog"
    [
      ( "store",
        [
          Alcotest.test_case "basic" `Quick test_store_basic;
          Alcotest.test_case "remove" `Quick test_store_remove;
          Alcotest.test_case "index" `Quick test_store_index;
          Alcotest.test_case "copy/equal" `Quick test_store_copy_equal;
          Alcotest.test_case "freeze" `Quick test_store_freeze;
          Alcotest.test_case "another arity never matches" `Quick test_store_arity;
          Alcotest.test_case "snapshot bytes unchanged" `Quick test_serialize_golden;
          Alcotest.test_case "unshared bytes estimate" `Quick test_unshared_bytes_estimate;
          QCheck_alcotest.to_alcotest prop_value_agrees;
        ] );
      ( "parser",
        [
          Alcotest.test_case "denial" `Quick test_parse_denial;
          Alcotest.test_case "features" `Quick test_parse_features;
          Alcotest.test_case "anonymous vars" `Quick test_parse_anon_distinct;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        ] );
      ( "eval",
        [
          Alcotest.test_case "join" `Quick test_eval_join;
          Alcotest.test_case "constants" `Quick test_eval_constants;
          Alcotest.test_case "negation" `Quick test_eval_negation;
          Alcotest.test_case "negation locals" `Quick test_eval_negation_local_vars;
          Alcotest.test_case "comparison binding" `Quick test_eval_comparison_binding;
          Alcotest.test_case "comparison ops" `Quick test_eval_cmp_ops;
          Alcotest.test_case "parameters" `Quick test_eval_params;
          Alcotest.test_case "all violations" `Quick test_eval_violations_all;
          Alcotest.test_case "unsafe" `Quick test_eval_unsafe;
        ] );
      ( "aggregates",
        [
          Alcotest.test_case "cnt" `Quick test_agg_cnt;
          Alcotest.test_case "cntd distinct" `Quick test_agg_cntd_distinct;
          Alcotest.test_case "cntd target" `Quick test_agg_target_distinct;
          Alcotest.test_case "sum/max/min" `Quick test_agg_sum_max_min;
          Alcotest.test_case "multi-atom join" `Quick test_agg_multi_atom_join;
          Alcotest.test_case "empty group" `Quick test_agg_empty_group;
        ] );
      ( "subsumption",
        [
          Alcotest.test_case "instance" `Quick test_subsume_instance;
          Alcotest.test_case "reverse" `Quick test_subsume_reverse;
          Alcotest.test_case "join" `Quick test_subsume_join;
          Alcotest.test_case "join fail" `Quick test_subsume_join_fail;
          Alcotest.test_case "param" `Quick test_subsume_param;
          Alcotest.test_case "param mismatch" `Quick test_subsume_param_mismatch;
          Alcotest.test_case "cmp symmetry" `Quick test_subsume_cmp_symmetry;
          Alcotest.test_case "cmp normalize" `Quick test_subsume_cmp_normalize;
          Alcotest.test_case "agg weakening" `Quick test_subsume_agg_weakening;
          Alcotest.test_case "variants" `Quick test_variant;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "param-only atom" `Quick test_eval_param_only_atom;
          Alcotest.test_case "cross product" `Quick test_eval_cross_product;
          Alcotest.test_case "self join" `Quick test_eval_self_join_same_tuple;
          Alcotest.test_case "agg bound from var" `Quick test_eval_agg_bound_from_var;
          Alcotest.test_case "subsume negation" `Quick test_subsume_not_literal;
          Alcotest.test_case "subsume multiset" `Quick test_subsume_multiset;
          Alcotest.test_case "rename apart" `Quick test_rename_apart;
          Alcotest.test_case "partial params" `Quick test_params_partial_application;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_violation_is_witness;
          QCheck_alcotest.to_alcotest prop_subsumption_semantic;
          QCheck_alcotest.to_alcotest prop_cnt_matches_length;
          QCheck_alcotest.to_alcotest prop_order_independence;
          QCheck_alcotest.to_alcotest prop_agg_atom_order;
          QCheck_alcotest.to_alcotest prop_frozen_generation_stable;
          QCheck_alcotest.to_alcotest prop_differential;
        ] );
    ]
