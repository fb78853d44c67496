(* QCheck properties for the delta algebra (lib/datalog/delta.ml) and
   the incremental maintenance layer behind [Repository.check_incremental]:

   - a fact inserted and then deleted inside one batch nets to nothing;
   - the net multiset matches a reference counting model;
   - one batch delta equals the sequential composition of its split;
   - the lazy any-column store index is an exact column filter;
   - transaction rollback restores the pre-transaction materialization;
   - journal recovery replay maintains the same views as the live run;
   - the count aggregates of Examples 2 and 7 stay exact under unguarded
     insert/remove streams that cross their bounds both ways;
   - every denial class (negation, sums, extrema, counts bounded either
     way) is maintained by delta rules and stays exact;
   - a fact change in columns a denial does not read costs it no
     evaluation, and a denial that reads the column is still exact. *)

module Store = Xic_datalog.Store
module Delta = Xic_datalog.Delta
module Term = Xic_datalog.Term
module Symbol = Xic_symbol.Symbol
open Xic_core
module Conf = Xic_workload.Conference
module Prng = Xic_workload.Prng
module XU = Xic_xupdate.Xupdate
module XP = Xic_xpath
module J = Xic_journal.Journal
module Incr = Xic_datalog.Incr
module Parser = Xic_datalog.Parser

(* A process-wide registry counter, read by name. *)
let counter name = Xic_obs.Obs.Metrics.value (Xic_obs.Obs.Metrics.counter name)

(* ------------------------------------------------------------------ *)
(* Delta algebra                                                       *)
(* ------------------------------------------------------------------ *)

let syms = [| Symbol.intern "p"; Symbol.intern "q" |]

(* (add?, relation, tuple) over two relations and tiny constants, so
   collisions — the interesting case — are frequent. *)
let gen_op =
  let open QCheck2.Gen in
  let const = map (fun n -> Term.Int n) (int_bound 2) in
  map3
    (fun add s t -> (add, s, t))
    bool (int_bound 1)
    (map Facts.tuple (list_size (return 2) const))

let gen_ops = QCheck2.Gen.(list_size (int_bound 24) gen_op)

let apply_ops d ops =
  List.iter
    (fun (add, s, tup) ->
      if add then Delta.add d syms.(s) tup else Delta.remove d syms.(s) tup)
    ops

let prop_cancellation =
  QCheck2.Test.make ~name:"insert then delete cancels" ~count:300 gen_ops
    (fun ops ->
      let d = Delta.create () in
      List.iter (fun (_, s, tup) -> Delta.add d syms.(s) tup) ops;
      List.iter (fun (_, s, tup) -> Delta.remove d syms.(s) tup) ops;
      Delta.is_empty d
      && Delta.added d = []
      && Delta.removed d = []
      && Delta.touched d = []
      && Delta.gross_added d = List.length ops
      && Delta.gross_removed d = List.length ops)

let prop_net_model =
  QCheck2.Test.make ~name:"net multiset matches counting model" ~count:300
    gen_ops (fun ops ->
      let d = Delta.create () in
      apply_ops d ops;
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, s, tup) ->
          let k = (s, tup) in
          let c = try Hashtbl.find model k with Not_found -> 0 in
          Hashtbl.replace model k (if add then c + 1 else c - 1))
        ops;
      let expect pos =
        Hashtbl.fold
          (fun (s, tup) c acc ->
            if (pos && c > 0) || ((not pos) && c < 0) then
              (syms.(s), tup, abs c) :: acc
            else acc)
          model []
      in
      let sort = List.sort compare in
      sort (Delta.added d) = sort (expect true)
      && sort (Delta.removed d) = sort (expect false))

(* The residual delta joins probe [Facts.with_col]; the lazy
   secondary index must stay an exact filter on the column under
   interleaved adds and removes, whether built before or after the
   mutations. *)
let prop_col_index =
  QCheck2.Test.make ~name:"any-column index equals column filter" ~count:300
    QCheck2.Gen.(pair gen_ops (int_bound 1))
    (fun (ops, col) ->
      let s = Store.create () in
      let early = Store.create () in
      (* [early] builds the index before the mutations, [s] after. *)
      ignore (Store.lookup_sym early syms.(0) col (Facts.V.of_int 0));
      List.iter
        (fun (add, r, tup) ->
          if add then begin
            Store.add_sym s syms.(r) tup;
            Store.add_sym early syms.(r) tup
          end
          else begin
            ignore (Store.remove_sym s syms.(r) tup);
            ignore (Store.remove_sym early syms.(r) tup)
          end)
        ops;
      let sort = List.sort compare in
      List.for_all
        (fun key ->
          let expect r =
            List.filter
              (fun tup -> col < Array.length tup && tup.(col) = Facts.V.of_int key)
              (Store.tuples_sym r syms.(0))
            |> sort
          in
          sort (Store.lookup_sym s syms.(0) col (Facts.V.of_int key))
          = expect s
          && sort (Store.lookup_sym early syms.(0) col (Facts.V.of_int key))
             = expect early)
        [ 0; 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Maintenance through the repository                                  *)
(* ------------------------------------------------------------------ *)

let names = [| "Ann"; "Bob"; "Carl"; "Dora"; "Ed" |]
let words = [| "Logic"; "Types"; "Query"; "Index" |]

let fixed_pub =
  {|<dblp><pub><title>Joint</title><aut><name>Carl</name></aut><aut><name>Nora</name></aut></pub><pub><title>Solo</title><aut><name>Ann</name></aut></pub></dblp>|}

let fixed_rev =
  {|<review><track><name>DB</name><rev><name>Carl</name><sub><title>S1</title><auts><name>Ann</name></auts></sub></rev><rev><name>Rita</name><sub><title>S2</title><auts><name>Bob</name></auts></sub></rev></track></review>|}

let mk_repo () =
  let s = Conf.schema () in
  let repo = Repository.create s in
  Repository.load_fused repo fixed_pub;
  Repository.load_fused repo fixed_rev;
  List.iter
    (Repository.add_constraint repo)
    [ Conf.conflict s; Conf.workload s; Conf.track_load s ];
  repo

let count repo path =
  List.length (XP.Eval.select (Repository.doc repo) (XP.Parser.parse path))

let random_rev_path r repo =
  let t = 1 + Prng.int r (count repo "/review/track") in
  let rv = 1 + Prng.int r (count repo (Printf.sprintf "/review/track[%d]/rev" t)) in
  Printf.sprintf "/review/track[%d]/rev[%d]" t rv

let random_sub_path r repo =
  let rev = random_rev_path r repo in
  let ns = count repo (rev ^ "/sub") in
  if ns = 0 then None
  else Some (Printf.sprintf "%s/sub[%d]" rev (1 + Prng.int r ns))

let sub_content r =
  XU.Elem
    ( "sub",
      [],
      [ XU.Elem ("title", [], [ XU.Text (Prng.pick r words) ]);
        XU.Elem
          ("auts", [], [ XU.Elem ("name", [], [ XU.Text (Prng.pick r names) ]) ])
      ] )

let random_update r repo =
  let mk op select content =
    [ { XU.op; select = XP.Parser.parse select; content } ]
  in
  match Prng.int r 4 with
  | 0 ->
    Option.map
      (fun p ->
        Conf.insert_submission ~select:p ~title:(Prng.pick r words)
          ~author:(Prng.pick r names))
      (random_sub_path r repo)
  | 1 ->
    Option.map
      (fun p -> mk XU.Insert_before p [ sub_content r ])
      (random_sub_path r repo)
  | 2 -> Some (mk XU.Append (random_rev_path r repo) [ sub_content r ])
  | _ -> Option.map (fun p -> mk XU.Remove p []) (random_sub_path r repo)

let apply_random r repo txn =
  match random_update r repo with
  | Some u -> ignore (Repository.txn_apply txn u : Repository.report)
  | None -> ()

let prop_txn_rollback =
  QCheck2.Test.make ~name:"rollback restores pre-transaction materialization"
    ~count:40
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let r = Prng.create seed in
      let repo = mk_repo () in
      (* a committed update first, so the rollback does not always
         return to the initial state *)
      let txn = Repository.begin_txn repo in
      apply_random r repo txn;
      Repository.commit_txn txn;
      let verdict0 = Repository.check_incremental repo in
      let view0 =
        match Repository.incr_view repo with
        | Some v -> Store.freeze v
        | None -> Alcotest.fail "no materialized views"
      in
      let txn = Repository.begin_txn repo in
      for _ = 1 to 1 + Prng.int r 2 do
        apply_random r repo txn
      done;
      (* materialize mid-transaction: the rollback's inverse deltas must
         retract exactly what this pass added *)
      ignore (Repository.check_incremental repo : string list);
      Repository.rollback_txn txn;
      let verdict1 = Repository.check_incremental repo in
      match Repository.incr_view repo with
      | Some v -> verdict0 = verdict1 && Store.equal view0 v
      | None -> false)

let prop_recovery_replay =
  QCheck2.Test.make ~name:"recovery replay maintains views like the live run"
    ~count:25
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let r = Prng.create seed in
      let live = mk_repo () in
      ignore (Repository.check_incremental live : string list);
      let path = Test_tmp.fresh "test_incr" ".j" in
      let j = J.open_ ~sync:false path in
      for _ = 1 to 1 + Prng.int r 2 do
        let txn = Repository.begin_txn ~journal:j live in
        for _ = 1 to 1 + Prng.int r 2 do
          apply_random r live txn
        done;
        if Prng.int r 4 = 0 then Repository.rollback_txn txn
        else Repository.commit_txn txn;
        ignore (Repository.check_incremental live : string list)
      done;
      J.close j;
      let fresh = mk_repo () in
      ignore (Repository.check_incremental fresh : string list);
      ignore (Repository.recover (J.read path) fresh : Repository.recovery_report);
      let live_verdict = Repository.check_incremental live in
      let fresh_verdict = Repository.check_incremental fresh in
      Sys.remove path;
      live_verdict = fresh_verdict
      &&
      match (Repository.incr_view live, Repository.incr_view fresh) with
      | Some a, Some b -> Store.equal a b
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Count aggregates across violation transitions                       *)
(* ------------------------------------------------------------------ *)

(* A review sitting on the bounds of Examples 2 and 7.  Carl serves four
   tracks with ten submissions, four of them in his first rev: one more
   submission under him violates both, and removing one restores both.
   Dora serves three tracks with eleven submissions, so a rev of hers in
   a fourth track violates Example 2 through its track count. *)
let threshold_rev =
  let sub i =
    Printf.sprintf
      "<sub><title>S%d</title><auts><name>%s</name></auts></sub>" i
      names.(i mod Array.length names)
  in
  let rev name n =
    Printf.sprintf "<rev><name>%s</name>%s</rev>" name
      (String.concat "" (List.init n sub))
  in
  let track name revs =
    Printf.sprintf "<track><name>%s</name>%s</track>" name (String.concat "" revs)
  in
  Printf.sprintf "<review>%s</review>"
    (String.concat ""
       [ track "T1" [ rev "Carl" 4; rev "Dora" 3 ];
         track "T2" [ rev "Carl" 2; rev "Dora" 4 ];
         track "T3" [ rev "Carl" 2; rev "Dora" 4 ];
         track "T4" [ rev "Carl" 2; rev "Ann" 1 ];
         track "T5" [ rev "Ed" 1 ] ])

let random_track_path r repo =
  Printf.sprintf "/review/track[%d]" (1 + Prng.int r (count repo "/review/track"))

(* Inserts and removes of submissions and of whole revs, applied without
   any check so the stream can walk into a violation and back out. *)
let random_stream_update r repo =
  let mk op select content =
    Some [ { XU.op; select = XP.Parser.parse select; content } ]
  in
  match Prng.int r 6 with
  | 0 | 1 ->
    Option.bind (random_sub_path r repo) (fun p ->
        mk XU.Insert_after p [ sub_content r ])
  | 2 -> Option.bind (random_sub_path r repo) (fun p -> mk XU.Remove p [])
  | 3 -> mk XU.Append (random_rev_path r repo) [ sub_content r ]
  | 4 ->
    mk XU.Append (random_track_path r repo)
      [ XU.Elem
          ( "rev",
            [],
            [ XU.Elem ("name", [], [ XU.Text (Prng.pick r [| "Carl"; "Dora"; "Ann" |]) ]);
              sub_content r ] ) ]
  | _ ->
    let t = random_track_path r repo in
    if count repo (t ^ "/rev") < 2 then None
    else mk XU.Remove (Printf.sprintf "%s/rev[%d]" t (1 + Prng.int r 2)) []

(* (constraint, direction) of every verdict flip the streams produced *)
let transitions = ref []

let fresh_views repo =
  let fresh =
    Incr.create
      (List.map
         (fun (c : Constr.t) -> (c.Constr.name, c.Constr.datalog))
         (Repository.constraints repo))
  in
  Incr.initialize fresh (Repository.store repo);
  Incr.view fresh

let prop_count_views_exact =
  QCheck2.Test.make
    ~name:"count views equal a fresh materialization after every flush"
    ~count:60
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let r = Prng.create seed in
      let s = Conf.schema () in
      let repo = Repository.create s in
      Repository.load_fused repo fixed_pub;
      Repository.load_fused repo threshold_rev;
      List.iter
        (Repository.add_constraint repo)
        [ Conf.conflict s; Conf.workload s; Conf.track_load s ];
      let before = ref (Repository.check_incremental repo) in
      let undos = ref [] in
      let ok = ref true in
      for _ = 1 to 4 + Prng.int r 12 do
        (* one flush covers one to three statements, or undoes the
           previous batch (inverse deltas) *)
        if !undos <> [] && Prng.int r 5 = 0 then begin
          List.iter (Repository.rollback repo) (List.rev !undos);
          undos := []
        end
        else
          undos :=
            List.filter_map
              (fun () ->
                Option.map (Repository.apply_unchecked repo)
                  (random_stream_update r repo))
              (List.init (1 + Prng.int r 3) (fun _ -> ()));
        let after = Repository.check_incremental repo in
        List.iter
          (fun c ->
            match (List.mem c !before, List.mem c after) with
            | false, true -> transitions := (c, `Into) :: !transitions
            | true, false -> transitions := (c, `Out) :: !transitions
            | _ -> ())
          [ "workload"; "track_load" ];
        before := after;
        (match Repository.incr_view repo with
         | Some v -> ok := !ok && Store.equal v (fresh_views repo)
         | None -> ok := false);
        ok :=
          !ok
          && List.sort compare after
             = List.sort compare (Repository.check_full repo)
      done;
      !ok)

let test_count_views_exact () =
  QCheck2.Test.check_exn prop_count_views_exact;
  List.iter
    (fun (c, dir) ->
      if not (List.mem (c, dir) !transitions) then
        Alcotest.failf "no stream moved %s %s violation" c
          (if dir = `Into then "into" else "out of"))
    [ ("workload", `Into); ("workload", `Out);
      ("track_load", `Into); ("track_load", `Out) ]

(* ------------------------------------------------------------------ *)
(* Polarity                                                            *)
(* ------------------------------------------------------------------ *)

(* Every denial class is maintained by delta rules: counts bounded from
   above or by equality, sums, extrema and negation lose or gain
   violations in either direction, through their sites' polarity, and
   must stay exact without a recompute after initialization.  Facts
   come from small domains, so they go about as often as they come and
   a rev keeps losing its last submission; every denial's view must
   both gain and lose witnesses over the run.  The extrema appear twice:
   grouped by a [sub] atom, whose own site already binds the group of a
   changed submission, and by a [rev] atom, where only the aggregate's
   site does. *)
let test_every_class_by_delta () =
  let denials =
    [ ":- rev(Ir, _, _, _), cnt(sub(_, _, Ir, _)) < 2";
      ":- rev(Ir, _, _, _), cnt(sub(_, _, Ir, _)) = 2";
      ":- rev(Ir, _, _, _), sum(P; sub(_, P, Ir, _)) > 3";
      ":- sub(_, _, Ir, _), max(P; sub(_, P, Ir, _)) > 2";
      ":- sub(_, _, Ir, _), min(P; sub(_, P, Ir, _)) < 2";
      ":- rev(Ir, _, _, _), max(P; sub(_, P, Ir, _)) > 2";
      ":- rev(Ir, _, _, _), min(P; sub(_, P, Ir, _)) < 2";
      ":- rev(Ir, _, _, _), not sub(_, _, Ir, _)";
      ":- rev(Ir, _, _, _), cnt(sub(_, _, Ir, _)) > 2";
      ":- rev(_, _, _, R), cntd(T; rev(_, _, T, R)) >= 2" ]
  in
  let constraints =
    List.mapi (fun k d -> (Printf.sprintf "d%d" k, [ Parser.parse_denial d ])) denials
  in
  let rev = Symbol.intern "rev" and sub = Symbol.intern "sub" in
  let r = Prng.create 5 in
  let st = Store.create () in
  let inc = Incr.create constraints in
  Incr.initialize inc st;
  (* the counters are process-wide, and each step's fresh
     materialization recomputes: count [inc]'s maintenance alone *)
  let recomputes = ref 0 and evals = ref 0 in
  let gained = Hashtbl.create 8 and lost = Hashtbl.create 8 in
  let rows () = Store.to_facts (Incr.view inc) in
  let before = ref (rows ()) in
  for step = 1 to 200 do
    let d = Delta.create () in
    for _ = 0 to Prng.int r 2 do
      let rel, tup =
        if Prng.bool r then
          (rev, [ Term.Int (Prng.int r 3); Term.Int 1; Term.Int (Prng.int r 2);
                  Term.Str (Prng.pick r names) ])
        else
          (sub, [ Term.Int (10 + Prng.int r 4); Term.Int (1 + Prng.int r 3);
                  Term.Int (Prng.int r 3); Term.Str "t" ])
      in
      let tup = Facts.tuple tup in
      if Store.mem_sym st rel tup then begin
        ignore (Store.remove_sym st rel tup);
        Delta.remove d rel tup
      end
      else begin
        Store.add_sym st rel tup;
        Delta.add d rel tup
      end
    done;
    let r0 = counter "incr_recomputes" and e0 = counter "incr_evals" in
    ignore (Incr.apply_delta inc st d : bool);
    recomputes := !recomputes + counter "incr_recomputes" - r0;
    evals := !evals + counter "incr_evals" - e0;
    let fresh = Incr.create constraints in
    Incr.initialize fresh st;
    Alcotest.(check bool)
      (Printf.sprintf "step %d: views equal a fresh materialization" step)
      true
      (Store.equal (Incr.view inc) (Incr.view fresh));
    let now = rows () in
    let diff tbl a b =
      List.iter (fun ((rel, _) as f) -> if not (List.mem f b) then Hashtbl.replace tbl rel ()) a
    in
    diff gained now !before;
    diff lost !before now;
    before := now
  done;
  let views tbl = List.sort compare (Hashtbl.fold (fun rel () acc -> rel :: acc) tbl []) in
  Alcotest.(check int)
    ("every view gained witnesses: " ^ String.concat " " (views gained))
    (List.length denials) (Hashtbl.length gained);
  Alcotest.(check int)
    ("every view lost witnesses: " ^ String.concat " " (views lost))
    (List.length denials) (Hashtbl.length lost);
  Alcotest.(check int) "no recompute after initialization" 0 !recomputes;
  Alcotest.(check bool) "the delta rules ran" true (!evals > 0)

(* A change that binds no variable of its residual leaves the whole
   denial to evaluate: removing the last submission under a negation
   that shares nothing with the body, or a submission whose aggregate
   atom holds no group-by variable.  That is a full evaluation, and it
   counts as a recompute, not as a residual evaluation. *)
let test_unbound_change_recomputes () =
  let rev = Symbol.intern "rev" and sub = Symbol.intern "sub"
  and auts = Symbol.intern "auts" in
  let sub_fact = Facts.tuple [ Term.Int 10; Term.Int 1; Term.Int 1; Term.Str "t" ] in
  let auts_fact = Facts.tuple [ Term.Int 20; Term.Int 1; Term.Int 10 ] in
  let st = Store.create () in
  Store.add_sym st rev (Facts.tuple [ Term.Int 1; Term.Int 1; Term.Int 0; Term.Str "Carl" ]);
  Store.add_sym st sub sub_fact;
  Store.add_sym st auts auts_fact;
  List.iter
    (fun (what, denial, rel, fact) ->
      let constraints = [ ("d", [ Parser.parse_denial denial ]) ] in
      let inc = Incr.create constraints in
      Incr.initialize inc st;
      let recomputes = counter "incr_recomputes" and evals = counter "incr_evals" in
      ignore (Store.remove_sym st rel fact);
      let d = Delta.create () in
      Delta.remove d rel fact;
      ignore (Incr.apply_delta inc st d : bool);
      Alcotest.(check (list string)) (what ^ ": violated") [ "d" ] (Incr.violated inc);
      Alcotest.(check int) (what ^ ": one recompute") (recomputes + 1)
        (counter "incr_recomputes");
      Alcotest.(check int) (what ^ ": no residual evaluation") evals
        (counter "incr_evals");
      Store.add_sym st rel fact)
    [ ("negation", ":- rev(Ir, _, _, _), not sub(_, _, _, _)", sub, sub_fact);
      ( "aggregate",
        ":- rev(Ir, _, _, _), cnt(sub(S, _, Ir, _), auts(_, _, S)) < 1",
        auts,
        auts_fact ) ]

(* ------------------------------------------------------------------ *)
(* Read columns                                                        *)
(* ------------------------------------------------------------------ *)

(* One rev (id 1, reviewer Carl) with submissions 10 and 11 at positions
   1 and 2.  [step ~remove ~add] applies one delta of submission facts
   (id, position) under rev 1, checks the views against a fresh
   materialization and returns the residual evaluations it cost; a
   shift (an insert or a withdrawal before a sibling) removes each old
   fact and adds the moved one. *)
let sub_fixture denials =
  let rev = Symbol.intern "rev" and sub = Symbol.intern "sub" in
  let sub_fact (id, pos) = Facts.tuple [ Term.Int id; Term.Int pos; Term.Int 1; Term.Str "t" ] in
  let st = Store.create () in
  Store.add_sym st rev (Facts.tuple [ Term.Int 1; Term.Int 1; Term.Int 0; Term.Str "Carl" ]);
  List.iter (fun f -> Store.add_sym st sub (sub_fact f)) [ (10, 1); (11, 2) ];
  let constraints =
    List.mapi (fun k d -> (Printf.sprintf "d%d" k, [ Parser.parse_denial d ])) denials
  in
  let inc = Incr.create constraints in
  Incr.initialize inc st;
  let step ~remove ~add =
    let d = Delta.create () in
    List.iter
      (fun f ->
        ignore (Store.remove_sym st sub (sub_fact f));
        Delta.remove d sub (sub_fact f))
      remove;
    List.iter
      (fun f ->
        Store.add_sym st sub (sub_fact f);
        Delta.add d sub (sub_fact f))
      add;
    let before = counter "incr_evals" in
    ignore (Incr.apply_delta inc st d : bool);
    let evals = counter "incr_evals" - before in
    let fresh = Incr.create constraints in
    Incr.initialize fresh st;
    Alcotest.(check bool) "views equal a fresh materialization" true
      (Store.equal (Incr.view inc) (Incr.view fresh));
    evals
  in
  (inc, step)

(* The conflict and track-load shapes: the submission's id and parent
   are joined or counted, its position and title are singletons, so a
   pure sibling shift cannot change either denial. *)
let test_shift_costs_nothing () =
  let _, step =
    sub_fixture
      [ ":- rev(Ir, _, _, R), sub(Is, _, Ir, _), auts(_, _, Is, R)";
        ":- rev(Ir, _, _, _), cntd(Is; sub(Is, _, Ir, _)) > 4" ]
  in
  Alcotest.(check int) "one shifted sibling" 0
    (step ~remove:[ (11, 2) ] ~add:[ (11, 3) ]);
  Alcotest.(check int) "two shifted siblings" 0
    (step ~remove:[ (10, 1); (11, 3) ] ~add:[ (10, 2); (11, 4) ]);
  Alcotest.(check bool) "a new submission is still evaluated" true
    (step ~remove:[] ~add:[ (12, 1) ] > 0)

(* Denials that read the position — through a comparison on a
   non-witness variable, or through a witness variable — are maintained
   through the same shift. *)
let test_position_readers_maintained () =
  let inc, step =
    sub_fixture
      [ ":- sub(_, _P, _, _), _P > 2"; ":- rev(Ir, _, _, _), sub(_, P, Ir, _)" ]
  in
  Alcotest.(check (list string)) "only the witness denial holds" [ "d1" ]
    (Incr.violated inc);
  Alcotest.(check bool) "the shift is evaluated" true
    (step ~remove:[ (11, 2) ] ~add:[ (11, 3) ] > 0);
  Alcotest.(check (list string)) "the comparison now holds too" [ "d0"; "d1" ]
    (Incr.violated inc);
  ignore (step ~remove:[ (11, 3) ] ~add:[ (11, 2) ]);
  Alcotest.(check (list string)) "shifting back restores the verdicts" [ "d1" ]
    (Incr.violated inc)

(* The denial reads only the submission's parent: two removed facts and
   two added ones share that projection and cancel pairwise; an added
   fact beyond the removed ones survives and is evaluated once. *)
let test_cancel_by_multiplicity () =
  let _, step = sub_fixture [ ":- sub(_, _, Ir, _), Ir = 2" ] in
  Alcotest.(check int) "two against two cancel" 0
    (step ~remove:[ (10, 1); (11, 2) ] ~add:[ (10, 5); (11, 6) ]);
  Alcotest.(check int) "two against one: one survives" 1
    (step ~remove:[ (10, 5) ] ~add:[ (10, 1); (12, 2) ])

(* ------------------------------------------------------------------ *)
(* Proven flushes                                                      *)
(* ------------------------------------------------------------------ *)

(* Carl reviews a submission he wrote: Example 1 is violated. *)
let conflicted_rev =
  {|<review><track><name>DB</name><rev><name>Carl</name><sub><title>Own</title><auts><name>Carl</name></auts></sub></rev><rev><name>Rita</name><sub><title>S2</title><auts><name>Bob</name></auts></sub></rev></track></review>|}

(* The submission pattern registered and the views materialized. *)
let guard_repo rev =
  let s = Conf.schema () in
  let repo = Repository.create s in
  Repository.load_fused repo fixed_pub;
  Repository.load_fused repo rev;
  List.iter
    (Repository.add_constraint repo)
    [ Conf.conflict s; Conf.workload s; Conf.track_load s ];
  Repository.register_pattern repo (Conf.submission_pattern s);
  ignore (Repository.check_incremental repo : string list);
  repo

(* A legal submission under Rita: every simplified check holds. *)
let rita_insert title =
  Conf.insert_submission ~select:"/review/track[1]/rev[2]/sub[1]" ~title
    ~author:"Zoe"

(* Whether the Prometheus exposition has the line [xic_NAME VALUE]. *)
let exposed name value =
  let line = Printf.sprintf "\nxic_%s %d\n" name value in
  let expo = Xic_obs.Obs.Metrics.to_prometheus () in
  let n = String.length line in
  let rec has i = i + n <= String.length expo && (String.sub expo i n = line || has (i + 1)) in
  has 0

let check_views_exact repo what =
  (match Repository.incr_view repo with
   | Some v ->
     Alcotest.(check bool) (what ^ ": views equal a recompute") true
       (Store.equal v (fresh_views repo))
   | None -> Alcotest.failf "%s: no materialized views" what);
  Alcotest.(check (list string)) (what ^ ": incremental verdict = full")
    (List.sort compare (Repository.check_full repo))
    (List.sort compare (Repository.check_incremental repo))

(* A root attached to the arena after the views exist (a generator's
   tree, say) arrives by delta: its attach event reaches the mirror, and
   the next flush maintains the views instead of dropping them. *)
let test_new_root_by_delta () =
  let s = Conf.schema () in
  let repo = Repository.create s in
  Repository.load_fused repo fixed_pub;
  List.iter
    (Repository.add_constraint repo)
    [ Conf.conflict s; Conf.workload s; Conf.track_load s ];
  Alcotest.(check (list string)) "consistent without reviews" []
    (Repository.check_incremental repo);
  let views = Option.get (Repository.incr_view repo) in
  let d0 = Repository.delta_stats repo in
  let doc = Repository.doc repo in
  let root, _ = Xic_xml.Xml_parser.parse_document_into doc conflicted_rev in
  Xic_xml.Doc.add_root doc root;
  Alcotest.(check (list string)) "the new root's conflict" [ "conflict" ]
    (Repository.check_incremental repo);
  Alcotest.(check bool) "the same views" true
    (Option.get (Repository.incr_view repo) == views);
  let d1 = Repository.delta_stats repo in
  check_views_exact repo "after the new root";
  Alcotest.(check int) "no recompute" d0.Repository.incr_recomputes
    d1.Repository.incr_recomputes;
  Alcotest.(check bool) "the root's facts came by delta" true
    (d1.Repository.delta_facts_added > d0.Repository.delta_facts_added);
  Alcotest.(check bool) "the views took the conflict by delta" true
    (d1.Repository.incr_evals > d0.Repository.incr_evals)

(* The counters live in the registry, so a view rebuild (a constraint
   added) adds its full evaluations to the count instead of starting a
   new one. *)
let test_recomputes_survive_rebuild () =
  let s = Conf.schema () in
  let repo = Repository.create s in
  Repository.load_fused repo fixed_pub;
  Repository.load_fused repo fixed_rev;
  Repository.add_constraint repo (Conf.conflict s);
  let r0 = counter "incr_recomputes" in
  ignore (Repository.check_incremental repo : string list);
  let d1 = Repository.delta_stats repo in
  Alcotest.(check int) "the first build recomputes every entry"
    (r0 + d1.Repository.incr_entries) d1.Repository.incr_recomputes;
  Repository.add_constraint repo (Conf.workload s);
  ignore (Repository.check_incremental repo : string list);
  let d2 = Repository.delta_stats repo in
  Alcotest.(check bool) "the rebuild has more entries" true
    (d2.Repository.incr_entries > d1.Repository.incr_entries);
  Alcotest.(check int) "the rebuild adds its recomputes"
    (d1.Repository.incr_recomputes + d2.Repository.incr_entries)
    d2.Repository.incr_recomputes;
  Alcotest.(check int) "the registry holds the count" d2.Repository.incr_recomputes
    (counter "incr_recomputes")

let check_optimized what = function
  | Repository.Applied `Optimized -> ()
  | _ -> Alcotest.failf "%s: expected a pre-checked, applied statement" what

(* On a consistent state, a statement the pre-check accepted leaves the
   views empty (Theorem 1): its flush runs no delta rule. *)
let test_proven_flush_skips () =
  let repo = guard_repo fixed_rev in
  let d0 = Repository.delta_stats repo and p0 = counter "incr_proven_flushes" in
  check_optimized "insert" (Repository.guarded_update repo (rita_insert "New"));
  let d1 = Repository.delta_stats repo in
  Alcotest.(check int) "no residual evaluation" d0.Repository.incr_evals
    d1.Repository.incr_evals;
  Alcotest.(check int) "no re-verification" d0.Repository.incr_reverifies
    d1.Repository.incr_reverifies;
  Alcotest.(check int) "every view skipped once"
    (d0.Repository.incr_skipped + d1.Repository.incr_entries)
    d1.Repository.incr_skipped;
  Alcotest.(check int) "one proven flush" (p0 + 1) (counter "incr_proven_flushes");
  Alcotest.(check bool) "the exposition carries the counter" true
    (exposed "incr_proven_flushes" (p0 + 1));
  Alcotest.(check bool) "the store took the facts" true
    (d1.Repository.delta_facts_added > d0.Repository.delta_facts_added);
  check_views_exact repo "after a proven flush"

(* A state that already violates a constraint is outside Theorem 1 for
   that constraint: the same insert maintains it.  The constraints whose
   views are empty are still skipped as proven. *)
let test_violated_state_maintained () =
  let repo = guard_repo conflicted_rev in
  let d0 = Repository.delta_stats repo and p0 = counter "incr_proven_flushes" in
  check_optimized "insert" (Repository.guarded_update repo (rita_insert "New"));
  Alcotest.(check bool) "the delta rules ran" true
    ((Repository.delta_stats repo).Repository.incr_evals > d0.Repository.incr_evals);
  Alcotest.(check int) "the empty views are proven" (p0 + 1)
    (counter "incr_proven_flushes");
  check_views_exact repo "on a violated state"

(* Rita reviews in four tracks with twelve submissions: Example 2 is
   violated, and only Example 2. *)
let overloaded_rev =
  let subs n =
    String.concat ""
      (List.init n (fun k ->
           Printf.sprintf "<sub><title>P%d</title><auts><name>Bob</name></auts></sub>" k))
  in
  let track name reviewer n =
    Printf.sprintf "<track><name>%s</name><rev><name>%s</name>%s</rev></track>" name
      reviewer (subs n)
  in
  Printf.sprintf "<review>%s</review>"
    (String.concat ""
       [ track "T1" "Rita" 3; track "T2" "Rita" 3; track "T3" "Rita" 3;
         track "T4" "Rita" 3; track "T5" "Ed" 1 ])

(* Theorem 1 holds per constraint: a pre-checked insert under Ed
   maintains Example 2's entries and skips every other constraint's. *)
let test_proven_per_constraint () =
  let repo = guard_repo overloaded_rev in
  Alcotest.(check (list string)) "only Example 2 is violated" [ "workload" ]
    (Repository.check_incremental repo);
  let d0 = Repository.delta_stats repo and p0 = counter "incr_proven_flushes" in
  check_optimized "insert"
    (Repository.guarded_update repo
       (Conf.insert_submission ~select:"/review/track[5]/rev[1]/sub[1]"
          ~title:"New" ~author:"Zoe"));
  let d1 = Repository.delta_stats repo in
  let workload =
    List.find (fun (c : Constr.t) -> c.Constr.name = "workload")
      (Repository.constraints repo)
  in
  Alcotest.(check bool) "Example 2 is maintained" true
    (d1.Repository.incr_evals > d0.Repository.incr_evals);
  Alcotest.(check int) "every other entry is skipped"
    (d0.Repository.incr_skipped + d1.Repository.incr_entries
     - List.length workload.Constr.datalog)
    d1.Repository.incr_skipped;
  Alcotest.(check int) "one proven flush" (p0 + 1) (counter "incr_proven_flushes");
  check_views_exact repo "after a per-constraint proven flush"

(* Marks an unchecked statement left behind reach the views before the
   pre-checked statement's flush decides whether it is proven. *)
let test_pending_marks_maintained_first () =
  let repo = guard_repo fixed_rev in
  ignore
    (Repository.apply_unchecked repo
       (Conf.insert_submission ~select:"/review/track[1]/rev[1]/sub[1]"
          ~title:"Own" ~author:"Carl")
      : XU.undo);
  check_optimized "insert" (Repository.guarded_update repo (rita_insert "New"));
  check_views_exact repo "after unchecked marks";
  Alcotest.(check (list string)) "the unchecked violation shows" [ "conflict" ]
    (Repository.check_incremental repo)

(* A fallback and a pre-checked statement in a transaction that is
   rolled back, then a pre-checked statement in one that commits. *)
let test_proven_flush_in_txn () =
  let repo = guard_repo fixed_rev in
  let p0 = counter "incr_proven_flushes" in
  let txn = Repository.begin_txn repo in
  let fallback =
    [ { XU.op = XU.Append;
        select = XP.Parser.parse "/review/track[1]/rev[2]";
        content = [ sub_content (Prng.create 1) ] } ]
  in
  (match (Repository.txn_apply txn fallback).Repository.outcome with
   | Repository.Applied `Full_check -> ()
   | _ -> Alcotest.fail "the unmatched append is checked after execution");
  check_optimized "first insert"
    (Repository.txn_apply txn (rita_insert "Gone")).Repository.outcome;
  Repository.rollback_txn txn;
  let txn = Repository.begin_txn repo in
  check_optimized "second insert"
    (Repository.txn_apply txn (rita_insert "Kept")).Repository.outcome;
  Repository.commit_txn txn;
  Alcotest.(check int) "both inserts proven" (p0 + 2) (counter "incr_proven_flushes");
  Alcotest.(check (pair int int)) "only the second insert stands" (0, 1)
    (count repo "//sub[title = 'Gone']", count repo "//sub[title = 'Kept']");
  check_views_exact repo "after the transactions"

(* An unmatched statement answers only for the constraints that held
   before it: on a state that violates only Example 2, appending a
   submission by an outside author commits, and one by the reviewer
   (Example 1) is still compensated, naming [conflict]. *)
let test_fallback_blames_new_violations () =
  let repo = guard_repo overloaded_rev in
  let append ~title ~author =
    [ { XU.op = XU.Append;
        select = XP.Parser.parse "/review/track[5]/rev[1]";
        content =
          [ XU.Elem
              ( "sub", [],
                [ XU.Elem ("title", [], [ XU.Text title ]);
                  XU.Elem ("auts", [], [ XU.Elem ("name", [], [ XU.Text author ]) ]) ] ) ] } ]
  in
  (match Repository.guarded_update repo (append ~title:"Fine" ~author:"Zoe") with
   | Repository.Applied `Full_check -> ()
   | Repository.Rolled_back c -> Alcotest.failf "rolled back, blaming %s" c
   | _ -> Alcotest.fail "the unmatched append is checked after execution");
  (match Repository.guarded_update repo (append ~title:"Own" ~author:"Ed") with
   | Repository.Rolled_back c -> Alcotest.(check string) "the new violation" "conflict" c
   | _ -> Alcotest.fail "a statement violating Example 1 must be compensated");
  Alcotest.(check (pair int int)) "only the legal append stands" (1, 0)
    (count repo "//sub[title = 'Fine']", count repo "//sub[title = 'Own']");
  Alcotest.(check (list string)) "Example 2 is still the only violation"
    [ "workload" ] (Repository.check_incremental repo);
  check_views_exact repo "after the fallbacks"

(* The views keep their compiled plans: once warm, guarded writes —
   pre-checked inserts, withdrawals, and illegal statements refused or
   compensated — compile none. *)
let test_plans_reused () =
  let repo = guard_repo fixed_rev in
  let compiled () = counter "datalog_plans_compiled" in
  let stmt op select content = [ { XU.op; select = XP.Parser.parse select; content } ] in
  let sub title author =
    XU.Elem
      ( "sub", [],
        [ XU.Elem ("title", [], [ XU.Text title ]);
          XU.Elem ("auts", [], [ XU.Elem ("name", [], [ XU.Text author ]) ]) ] )
  in
  let round k =
    let outcomes =
      List.map
        (fun u -> (Repository.guarded_batch repo [ u ] |> List.hd).Repository.outcome)
        [ rita_insert (Printf.sprintf "Paper %d" k);
          stmt XU.Remove "/review/track[1]/rev[2]/sub[2]" [];
          Conf.insert_submission ~select:"/review/track[1]/rev[2]/sub[1]"
            ~title:"Own" ~author:"Rita";
          stmt XU.Append "/review/track[1]/rev[2]" [ sub "Own" "Rita" ] ]
    in
    match outcomes with
    | [ Repository.Applied `Optimized; Repository.Applied `Full_check;
        Repository.Rejected_early "conflict"; Repository.Rolled_back "conflict" ] -> ()
    | _ -> Alcotest.failf "round %d: unexpected outcomes" k
  in
  round 0;
  let c0 = compiled () in
  for k = 1 to 50 do round k done;
  Alcotest.(check int) "no plan compiled by 200 guarded writes" c0 (compiled ());
  check_views_exact repo "after the writes";
  Alcotest.(check bool) "the exposition carries the counter" true
    (exposed "datalog_plans_compiled" (compiled ()))

let () =
  Alcotest.run "incr"
    [
      ( "delta algebra",
        [
          QCheck_alcotest.to_alcotest prop_cancellation;
          QCheck_alcotest.to_alcotest prop_net_model;
          QCheck_alcotest.to_alcotest prop_col_index;
        ] );
      ( "maintenance",
        [
          QCheck_alcotest.to_alcotest prop_txn_rollback;
          QCheck_alcotest.to_alcotest prop_recovery_replay;
          Alcotest.test_case "count views across violation transitions"
            `Quick test_count_views_exact;
          Alcotest.test_case "every class is maintained by delta" `Quick
            test_every_class_by_delta;
          Alcotest.test_case "an unbound change recomputes" `Quick
            test_unbound_change_recomputes;
          Alcotest.test_case "recomputes count across a rebuild" `Quick
            test_recomputes_survive_rebuild;
          Alcotest.test_case "a new root arrives by delta" `Quick
            test_new_root_by_delta;
        ] );
      ( "read columns",
        [
          Alcotest.test_case "a sibling shift costs nothing" `Quick
            test_shift_costs_nothing;
          Alcotest.test_case "position readers are maintained" `Quick
            test_position_readers_maintained;
          Alcotest.test_case "cancellation by multiplicity" `Quick
            test_cancel_by_multiplicity;
        ] );
      ( "proven flushes",
        [
          Alcotest.test_case "a pre-checked insert skips maintenance" `Quick
            test_proven_flush_skips;
          Alcotest.test_case "a violated state is maintained" `Quick
            test_violated_state_maintained;
          Alcotest.test_case "proven per constraint" `Quick
            test_proven_per_constraint;
          Alcotest.test_case "pending marks are maintained first" `Quick
            test_pending_marks_maintained_first;
          Alcotest.test_case "fallback, rolled-back pre-check and pre-check"
            `Quick test_proven_flush_in_txn;
          Alcotest.test_case "a fallback answers for new violations only"
            `Quick test_fallback_blames_new_violations;
          Alcotest.test_case "warm views compile no plan" `Quick test_plans_reused;
        ] );
    ]
