(* A head-to-head of every verifier in the repository on a handful of
   brightening-attack benchmarks — the §7 evaluation in miniature, on
   one trained network.

   Tools: Charon with the learned policy, AI2 with two domains,
   ReluVal, Reluplex, and the Charon+Reluplex portfolio of §9's
   future-work sketch.

   Run with:  dune exec examples/tool_shootout.exe *)

let timeout = 2.0

let () =
  Printf.printf "training the benchmark network...\n%!";
  let entry = Datasets.Suite.build_network ~seed:2019 "mnist-3x100" in
  let props = Datasets.Suite.properties ~seed:2019 entry ~count:8 in
  let workload = [ (entry, props) ] in

  Printf.printf "learning a verification policy...\n%!";
  let policy = Experiments.Training.learned_policy ~seed:2019 () in

  let tools =
    [
      Experiments.Tool.charon ~policy ();
      Experiments.Tool.ai2 Domains.Domain.zonotope_join;
      Experiments.Tool.ai2 (Domains.Domain.powerset Domains.Domain.Zonotope_join_base 64);
      Experiments.Tool.reluval;
      Experiments.Tool.reluplex;
      Experiments.Tool.charon_then_reluplex ~policy ~split:0.5 ();
    ]
  in
  let results =
    Experiments.Runner.run_suite ~seed:2019 ~timeout tools workload
  in

  (* One row per property, one column per tool. *)
  Printf.printf "\n%-22s" "property";
  List.iter
    (fun (t : Experiments.Tool.t) ->
      Printf.printf " %18s" t.Experiments.Tool.name)
    tools;
  print_newline ();
  List.iter
    (fun (p : Common.Property.t) ->
      Printf.printf "%-22s" p.Common.Property.name;
      List.iter
        (fun (t : Experiments.Tool.t) ->
          let r =
            List.find
              (fun (r : Experiments.Runner.result) ->
                r.Experiments.Runner.tool = t.Experiments.Tool.name
                && r.Experiments.Runner.property = p.Common.Property.name)
              results
          in
          Printf.printf " %18s"
            (Printf.sprintf "%s/%.2fs"
               (Common.Outcome.label r.Experiments.Runner.outcome)
               r.Experiments.Runner.time))
        tools;
      print_newline ())
    props;

  (* Summary and the cross-tool consistency check. *)
  Printf.printf "\n%-22s %8s %10s\n" "tool" "solved" "total-time";
  List.iter
    (fun (t : Experiments.Tool.t) ->
      let rs = Experiments.Runner.by_tool results t.Experiments.Tool.name in
      Printf.printf "%-22s %8d %9.2fs\n" t.Experiments.Tool.name
        (List.length (Experiments.Runner.solved rs))
        (List.fold_left
           (fun acc (r : Experiments.Runner.result) ->
             acc +. r.Experiments.Runner.time)
           0.0 rs))
    tools;
  Experiments.Figures.consistency results;

  (* Everyone's refutations are real counterexamples. *)
  let obj_of (p : Common.Property.t) =
    Optim.Objective.create entry.Datasets.Suite.net ~k:p.Common.Property.target
  in
  List.iter
    (fun (r : Experiments.Runner.result) ->
      match r.Experiments.Runner.outcome with
      | Common.Outcome.Refuted x ->
          let p =
            List.find
              (fun (p : Common.Property.t) ->
                p.Common.Property.name = r.Experiments.Runner.property)
              props
          in
          assert (Optim.Objective.value (obj_of p) x <= 1e-4)
      | _ -> ())
    results;
  Printf.printf "all refutation witnesses re-checked concretely.\n"
