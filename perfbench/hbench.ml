(* In-process half of the HALOTIS benchmark (perfbench/run.py drives it).

     hbench gen WORKLOAD SEED DIR   write the seeded inputs and DIR/manifest.json
     hbench expect DIR              one-shot reference outputs for the gates
     hbench analog DIR              DDM vs analog edge error on the mult8 inputs
     hbench trace DIR               traced in-process replay, per-layer JSON

   Every input is a pure function of (WORKLOAD, SEED): [gen] twice with
   the same arguments writes byte-identical files.  All paths inside
   DIR are relative, and every subcommand but [gen] runs with DIR as its
   working directory, exactly like the CLI processes run.py times. *)

module N = Halotis_netlist.Netlist
module G = Halotis_netlist.Generators
module Hnl = Halotis_netlist.Hnl
module Prng = Halotis_util.Prng
module Json = Halotis_util.Json
module Sim = Halotis_engine.Sim
module Compiled = Halotis_engine.Compiled
module Stats = Halotis_engine.Stats
module Stimfile = Halotis_stim.Stimfile
module Lint = Halotis_lint.Lint
module Vcd = Halotis_wave.Vcd
module Digital = Halotis_wave.Digital
module Transition = Halotis_wave.Transition
module Campaign = Halotis_fault.Campaign
module Journal = Halotis_fault.Journal
module Fault_report = Halotis_fault.Fault_report
module Inject = Halotis_fault.Inject
module Site = Halotis_fault.Site
module Server = Halotis_serve.Server
module P = Halotis_serve.Protocol
module Circuit_cache = Halotis_serve.Circuit_cache
module Sampler = Halotis_vary.Sampler
module Vary_report = Halotis_vary.Vary_report
module Param_overlay = Halotis_tech.Param_overlay
module Asim = Halotis_analog.Sim

let tech = Halotis_tech.Default_lib.tech
let num i = Json.Num (float_of_int i)
let strs l = Json.Arr (List.map (fun s -> Json.Str s) l)

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let ok_or_fail what = function
  | Ok v -> v
  | Error _ -> failwith (what ^ ": parse error")

(* ---------- workloads ---------- *)

(* Sizes of one workload.  [sites]/[corners]/[vary_sites] also size the
   traced replay's fault and vary stages on workloads whose CLI command
   does not run them, so every layer has a measured number everywhere. *)
type workload = {
  w_name : string;
  w_horizon : float;  (** ps; passed to every command as --t-stop *)
  w_sites : int;  (** faults -n *)
  w_corners : int;  (** vary --samples *)
  w_vary_sites : int;  (** vary -n *)
  w_steps : int;  (** advance steps of the stepped serve session *)
  w_copies : int;
      (** extra cache-missing serve loads of the circuit, so that one
          daemon gives more than one load_miss sample *)
}

let workloads =
  [
    { w_name = "sim-rand40k"; w_horizon = 20_000.; w_sites = 16; w_corners = 2;
      w_vary_sites = 8; w_steps = 250; w_copies = 1 };
    { w_name = "faults-rand5k"; w_horizon = 32_000.; w_sites = 400; w_corners = 2;
      w_vary_sites = 8; w_steps = 250; w_copies = 4 };
    { w_name = "serve-mix"; w_horizon = 12_000.; w_sites = 16; w_corners = 2;
      w_vary_sites = 8; w_steps = 250; w_copies = 0 };
    { w_name = "vary-mult8"; w_horizon = 67_500.; w_sites = 100; w_corners = 2;
      w_vary_sites = 150; w_steps = 250; w_copies = 4 };
  ]

let find_workload name =
  match List.find_opt (fun w -> w.w_name = name) workloads with
  | Some w -> w
  | None ->
      failwith
        (Printf.sprintf "unknown workload %S (expected %s)" name
           (String.concat ", " (List.map (fun w -> w.w_name) workloads)))

(* Independent, reproducible sub-streams of one command-line seed. *)
let sub seed k = ((seed * 1_000_003) + (k * 7_919) + 17) land 0x3FFF_FFFF

(* vary-mult8's operand sequence; also the held-out accuracy input. *)
let mult8_period = 2_500.
let mult8_vectors = 24
let sigma_device = 0.05
let sigma_chip = 0.03
let sigma_lot = 0.02
let stress_hours = 1000.
let pulse = Inject.pulse ~slope:100. ~width:150. ()

(* ---------- circuit generation ---------- *)

(* The signal names scripts and stimuli refer to. *)
type names = {
  inputs : string array;
  outputs : string array;
  victims : string array;  (** gate outputs: SET injection targets *)
}

let names_of c =
  let arr l = Array.of_list (List.map (N.signal_name c) l) in
  { inputs = arr (N.primary_inputs c); outputs = arr (N.primary_outputs c);
    victims = arr (Site.candidates c) }

(* A random acyclic circuit in HNL text, built like
   [halotis generate random] (each gate INV/NAND2/NOR2/XOR2, every
   sink-less signal an output) but as [blocks] independent blocks, each
   with its own slice of the inputs and gates drawing fan-in uniformly
   from their block's earlier signals.  One random block's activity
   swings widely with the seed; the sum over blocks does not, so the
   workload's cost does not hinge on one draw.  Emitted directly, in
   linear time. *)
let random_hnl ~name ~blocks ~gates ~inputs ~seed =
  let rng = Prng.create ~seed in
  let nsig = inputs + gates in
  let sname i = if i < inputs then Printf.sprintf "in%d" i else Printf.sprintf "w%d" (i - inputs) in
  let loaded = Bytes.make nsig '\000' in
  let kinds = [| ("inv", 1); ("nand2", 2); ("nor2", 2); ("xor2", 2) |] in
  let body = Buffer.create (gates * 32) in
  let in_per = inputs / blocks and g_per = gates / blocks in
  for g = 0 to gates - 1 do
    let b = min (blocks - 1) (g / g_per) in
    (* block b: inputs [b*in_per, ...) and gates [b*g_per, g) *)
    let ins = if b = blocks - 1 then inputs - (b * in_per) else in_per in
    let earlier = g - (b * g_per) in
    let pick () =
      let k = Prng.int rng ~bound:(ins + earlier) in
      if k < ins then (b * in_per) + k else inputs + (b * g_per) + (k - ins)
    in
    let kind, arity = kinds.(Prng.int rng ~bound:(Array.length kinds)) in
    Printf.bprintf body "gate rg%d %s %s" g kind (sname (inputs + g));
    for _ = 1 to arity do
      let sid = pick () in
      Bytes.set loaded sid '\001';
      Printf.bprintf body " %s" (sname sid)
    done;
    Buffer.add_char body '\n'
  done;
  let all = Array.init nsig sname in
  let outputs = List.filter (fun i -> Bytes.get loaded i = '\000') (List.init nsig Fun.id) in
  let names =
    { inputs = Array.sub all 0 inputs; outputs = Array.of_list (List.map sname outputs);
      victims = Array.sub all inputs gates }
  in
  let text =
    Printf.sprintf "circuit %s\ninput %s\noutput %s\n%send\n" name
      (String.concat " " (Array.to_list names.inputs))
      (String.concat " " (Array.to_list names.outputs))
      (Buffer.contents body)
  in
  (text, names)

(* ---------- stimulus generation ---------- *)

(* One HSV line per input: initial level, then toggles at the given
   integer instants (ps), which must be strictly increasing. *)
let render_stim entries =
  let b = Buffer.create 4096 in
  Buffer.add_string b "slope 100\n";
  List.iter
    (fun (name, init, times) ->
      Printf.bprintf b "input %s %d" name (if init then 1 else 0);
      ignore
        (List.fold_left
           (fun level t ->
             let level = not level in
             Printf.bprintf b " %d@%d" (if level then 1 else 0) t;
             level)
           init times);
      Buffer.add_char b '\n')
    entries;
  Buffer.contents b

let sorted_unique l = List.sort_uniq compare l

(* [toggles] uniformly placed toggles per input inside [lo, hi). *)
let toggle_stim rng names ~toggles ~lo ~hi =
  List.map
    (fun name ->
      let times = sorted_unique (List.init toggles (fun _ -> lo + Prng.int rng ~bound:(hi - lo))) in
      (name, Prng.bool rng, times))
    (Array.to_list names.inputs)

(* Staggered stimulus: input i may change once per 2.5 ns slot, jittered
   by up to 400 ps, the unsynchronized testbench pattern of the cone
   experiment. *)
let staggered_stim rng names ~slots =
  List.map
    (fun name ->
      let init = Prng.bool rng in
      let _, times =
        List.fold_left
          (fun (level, acc) k ->
            let t = (2500 * (k + 1)) + Prng.int rng ~bound:400 in
            let next = Prng.bool rng in
            if next <> level then (next, t :: acc) else (level, acc))
          (init, []) (List.init slots Fun.id)
      in
      (name, init, List.rev times))
    (Array.to_list names.inputs)

(* Operand pairs applied every [mult8_period]: one HSV entry per
   operand bit, toggling whenever that bit changes. *)
let mult8_stim seed =
  let m = G.array_multiplier ~m:8 ~n:8 () in
  let c = m.G.mult_circuit in
  let rng = Prng.create ~seed:(sub seed 101) in
  (* random operand pairs, each followed by its complement, so every
     other transition toggles all 16 inputs *)
  let ops =
    List.concat
      (List.init (mult8_vectors / 2) (fun _ ->
           let a = Prng.int rng ~bound:256 in
           let b = Prng.int rng ~bound:256 in
           [ (a, b); (a lxor 255, b lxor 255) ]))
  in
  let bus bits pick =
    List.mapi
      (fun i sid ->
        let bit k = (pick (List.nth ops k) lsr i) land 1 = 1 in
        let times =
          List.filter_map
            (fun k ->
              if bit k <> bit (k - 1) then Some (k * int_of_float mult8_period) else None)
            (List.init (mult8_vectors - 1) (fun k -> k + 1))
        in
        (N.signal_name c sid, bit 0, times))
      bits
  in
  (c, render_stim (bus m.G.ma_bits fst @ bus m.G.mb_bits snd))

(* ---------- serve scripts ---------- *)

let load_req ?stim ?t_stop circuit =
  P.Load
    {
      P.ld_circuit = circuit;
      ld_engine = "ddm";
      ld_stim = stim;
      ld_t_stop = t_stop;
      ld_max_events = None;
      ld_max_transitions = None;
      (* the one-shot reference runs unwatched too *)
      ld_watchdog = Some false;
    }

(* The stepped session every run carries: load the workload's circuit
   and stimulus, advance to the horizon in [w_steps] absolute steps, each
   followed by three status polls, then read every output's edges — the
   reply the gate compares with a one-shot run, last in the returned
   list.  The polls keep the median round trip inside one kind of
   request, so it does not jump between polls and steps from seed to
   seed. *)
let stepped_session w ~circuit ~session =
  let h = w.w_horizon in
  let poll = P.Query { qu_session = session; qu_query = P.Q_stats } in
  let steps =
    List.concat_map
      (fun i ->
        let upto = h *. float_of_int (i + 1) /. float_of_int w.w_steps in
        [ P.Advance { ad_session = session; ad_upto = P.Upto upto }; poll; poll; poll ])
      (List.init w.w_steps Fun.id)
  in
  (load_req ~stim:"s.hsv" ~t_stop:h circuit :: steps)
  @ [ P.Query { qu_session = session; qu_query = P.Q_edges None } ]

(* A write/read round mix on an already loaded circuit, closed loop:
   each round commands two inputs just after the frontier and advances;
   reads interleave stats, single-output edges and raw waveforms, and
   one SET pulse lands mid-session. *)
let interactive_session rng { inputs; outputs; victims } ~session ~rounds =
  let pick a = a.(Prng.int rng ~bound:(Array.length a)) in
  let dt = 2000. in
  List.concat
    (List.init rounds (fun r ->
         let frontier = dt *. float_of_int r in
         let set k =
           P.Set_input
             {
               si_session = session;
               si_signal = pick inputs;
               si_at = frontier +. 50. +. (300. *. float_of_int k);
               si_level = Prng.bool rng;
               si_slope = None;
             }
         in
         let inject =
           if r = rounds / 2 then
             [
               P.Inject
                 {
                   in_session = session;
                   in_signal = pick victims;
                   in_at = frontier +. 300.;
                   in_width = 200.;
                   in_slope = None;
                   in_up = Prng.bool rng;
                 };
             ]
           else []
         in
         let reads =
           (if r mod 3 = 0 then
              [ P.Query { qu_session = session; qu_query = P.Q_edges (Some (pick outputs)) } ]
            else [])
           @
           if r mod 4 = 1 then
             [ P.Query { qu_session = session; qu_query = P.Q_waveform (pick outputs) } ]
           else []
         in
         [ set 0; set 1 ] @ inject
         @ [
             P.Advance { ad_session = session; ad_upto = P.Dt dt };
             P.Query { qu_session = session; qu_query = P.Q_stats };
           ]
         @ reads))

(* The file names of the circuit's [w_copies] copies: the same netlist
   with a distinct trailing comment, so each load of one misses the
   content-keyed cache. *)
let copy_name k = Printf.sprintf "c%d.hnl" k

(* Batch workloads: the stepped session on the workload's circuit file,
   then a second load of the same file (a cache hit) driven
   interactively, then one load of each copy. *)
let batch_script rng w names =
  let stepped = stepped_session w ~circuit:(P.Path "c.hnl") ~session:1 in
  let gate = List.length stepped in
  let second =
    (load_req (P.Path "c.hnl") :: interactive_session rng names ~session:2 ~rounds:4)
    @ [ P.Close 2 ]
  in
  let copies =
    List.concat
      (List.init w.w_copies (fun k ->
           [ load_req (P.Path (copy_name (k + 1))); P.Close (k + 3) ]))
  in
  ((P.Hello P.version :: stepped) @ (P.Close 1 :: second) @ copies, gate)

(* serve-mix: a seeded pool of random circuits, more than the default
   cache capacity of 8, loaded inline.  Sessions alternate between a hot
   subset of 4 and a cold stream over the rest, so loads both hit and
   miss/evict.  The access pattern is fixed and only the circuits behind
   it are seeded, so every seed pays the same number of misses. *)
let pool_size = 16
let hot = 4
let mix_sessions = 30
let mix_rounds = 10

let serve_pool seed =
  Array.init pool_size (fun k ->
      random_hnl ~name:(Printf.sprintf "pool%d" k) ~blocks:1 ~gates:1000 ~inputs:12
        ~seed:(sub seed (300 + k)))

let mix_script rng w pool =
  let sources = Array.map fst pool in
  let stepped = stepped_session w ~circuit:(P.Inline sources.(0)) ~session:1 in
  let gate = List.length stepped in
  let cold = pool_size - 1 - hot in
  let sessions =
    List.concat
      (List.init mix_sessions (fun i ->
           let session = i + 2 in
           let k = if i mod 2 = 0 then 1 + (i / 2 mod hot) else 1 + hot + (i / 2 mod cold) in
           (load_req (P.Inline sources.(k))
           :: interactive_session rng (snd pool.(k)) ~session ~rounds:mix_rounds)
           @ [ P.Close session ]))
  in
  ((P.Hello P.version :: stepped) @ (P.Close 1 :: sessions), gate)

let render_script reqs =
  String.concat ""
    (List.mapi (fun i r -> P.request_to_line ~id:(i + 1) r ^ "\n") reqs)

(* ---------- gen ---------- *)

let fmt_t h = Printf.sprintf "%.0f" h

let vary_args w seed =
  [ "vary"; "c.hnl"; "--stim"; "s.hsv"; "--t-stop"; fmt_t w.w_horizon; "--seed";
    string_of_int (sub seed 7); "--sigma-device"; string_of_float sigma_device;
    "--sigma-chip"; string_of_float sigma_chip; "--sigma-lot"; string_of_float sigma_lot;
    "--stress-hours"; string_of_float stress_hours; "--format"; "json" ]

let faults_args w seed journal =
  [ "faults"; "c.hnl"; "--stim"; "s.hsv"; "--t-stop"; fmt_t w.w_horizon; "--seed";
    string_of_int (sub seed 5); "--journal"; journal; "--format"; "json" ]

(* The commands run.py times.  [setup] is the same command with zero
   work; [serial] the workload's unit of work; [jobs2] the same work on
   two workers (a list of commands run concurrently); [outputs] the
   files each serial/jobs2 command writes that must match byte for
   byte. *)
let commands w seed =
  let sim extra = [ "simulate"; "c.hnl"; "--stim"; "s.hsv"; "--t-stop" ] @ extra in
  let h = fmt_t w.w_horizon in
  match w.w_name with
  | "sim-rand40k" ->
      ( [ sim [ "0" ] ],
        sim [ h; "--vcd"; "serial.vcd" ],
        [ sim [ h; "--vcd"; "jobs2-0.vcd" ]; sim [ h; "--vcd"; "jobs2-1.vcd" ] ],
        [ ("serial.vcd", [ "jobs2-0.vcd"; "jobs2-1.vcd" ]) ] )
  | "faults-rand5k" ->
      let n = [ "-n"; string_of_int w.w_sites ] in
      ( [ faults_args w seed "setup.journal" @ [ "-n"; "0" ] ],
        faults_args w seed "serial.journal" @ n,
        [ faults_args w seed "jobs2.journal" @ n @ [ "--jobs"; "2" ] ],
        [ ("serial.journal", [ "jobs2.journal" ]) ] )
  | "vary-mult8" ->
      let n = [ "--samples"; string_of_int w.w_corners; "-n"; string_of_int w.w_vary_sites ] in
      ( [ vary_args w seed @ [ "--samples"; "0"; "-n"; "0" ] ],
        vary_args w seed @ n,
        [ vary_args w seed @ n @ [ "--jobs"; "2" ] ],
        [] )
  | _ -> ([], [], [], [])

let gen wname seed dir =
  let w = find_workload wname in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path f = Filename.concat dir f in
  let rng = Prng.create ~seed:(sub seed 1) in
  let pool = lazy (serve_pool seed) in
  let text, names =
    match w.w_name with
    | "sim-rand40k" ->
        random_hnl ~name:"rand40k" ~blocks:8 ~gates:40_000 ~inputs:64 ~seed:(sub seed 2)
    | "faults-rand5k" ->
        random_hnl ~name:"rand5k" ~blocks:8 ~gates:5_000 ~inputs:32 ~seed:(sub seed 2)
    | "vary-mult8" ->
        let c = (G.array_multiplier ~m:8 ~n:8 ()).G.mult_circuit in
        (Hnl.to_string c, names_of c)
    | _ -> (Lazy.force pool).(0)
  in
  let stim =
    match w.w_name with
    | "sim-rand40k" -> render_stim (toggle_stim rng names ~toggles:10 ~lo:500 ~hi:18_000)
    | "faults-rand5k" -> render_stim (staggered_stim rng names ~slots:8)
    | "vary-mult8" -> snd (mult8_stim seed)
    | _ -> render_stim (toggle_stim rng names ~toggles:6 ~lo:300 ~hi:9_000)
  in
  write_file (path "c.hnl") text;
  for k = 1 to w.w_copies do
    write_file (path (copy_name k)) (Printf.sprintf "%s# copy %d\n" text k)
  done;
  write_file (path "s.hsv") stim;
  let srng = Prng.create ~seed:(sub seed 3) in
  let script, gate =
    if w.w_name = "serve-mix" then mix_script srng w (Lazy.force pool)
    else batch_script srng w names
  in
  write_file (path "serve.ndjson") (render_script script);
  let setup, serial, jobs2, outputs = commands w seed in
  let argv l = Json.Arr (List.map strs l) in
  let manifest =
    Json.Obj
      [
        ("workload", Json.Str w.w_name);
        ("seed", num seed);
        ("kind", Json.Str (if w.w_name = "serve-mix" then "serve" else "cli"));
        ("setup", argv setup);
        ("serial", strs serial);
        ("jobs2", argv jobs2);
        ( "outputs",
          Json.Arr (List.map (fun (a, bs) -> Json.Arr [ Json.Str a; strs bs ]) outputs) );
        ("serve_gate_request", num gate);
        ("stdout_expect", Json.Bool (w.w_name = "sim-rand40k"));
      ]
  in
  write_file (path "manifest.json") (Json.to_string manifest ^ "\n")

(* ---------- expect ---------- *)

let load_inputs () =
  let c = ok_or_fail "c.hnl" (Hnl.parse_file "c.hnl") in
  let stim = ok_or_fail "s.hsv" (Stimfile.parse_file "s.hsv") in
  let drives =
    match Stimfile.bind stim c with Ok d -> d | Error m -> failwith ("s.hsv: " ^ m)
  in
  (c, stim, drives)

let manifest () = ok_or_fail "manifest.json" (Json.parse (read_file "manifest.json"))

let workload_of_manifest m =
  match Option.bind (Json.member "workload" m) Json.to_str with
  | Some name -> find_workload name
  | None -> failwith "manifest.json: no workload"

let seed_of_manifest m =
  match Option.bind (Json.member "seed" m) Json.to_float with
  | Some s -> int_of_float s
  | None -> failwith "manifest.json: no seed"

(* [halotis simulate]'s text rendering of a finished run. *)
let simulate_text r =
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b (Format.asprintf "%s: %a@." "DDM" Stats.pp r.Sim.rs_stats);
  List.iter
    (fun (name, edges) ->
      Buffer.add_string b
        (Format.asprintf "%s: %d edges%s@." name (List.length edges)
           (if edges = [] then ""
            else
              ": "
              ^ String.concat ", " (List.map (Format.asprintf "%a" Digital.pp_edge) edges))))
    (Sim.output_edges r);
  Buffer.contents b

(* The edges a serve [query edges] reply carries, from a one-shot run. *)
let edges_json r =
  let pol = function Transition.Rising -> "rise" | Transition.Falling -> "fall" in
  Json.Arr
    (List.map
       (fun (name, es) ->
         Json.Obj
           [
             ("signal", Json.Str name);
             ( "edges",
               Json.Arr
                 (List.map
                    (fun (e : Digital.edge) ->
                      Json.Obj
                        [ ("at", Json.Num e.Digital.at); ("polarity", Json.Str (pol e.Digital.polarity)) ])
                    es) );
           ])
       (Sim.output_edges r))

let expect () =
  let w = workload_of_manifest (manifest ()) in
  let c, _, drives = load_inputs () in
  let r = Sim.run Sim.Ddm (Sim.spec ~drives ~t_stop:w.w_horizon ~tech c) in
  write_file "expect_serve.json" (Json.to_string ~indent:false (edges_json r) ^ "\n");
  if w.w_name = "sim-rand40k" then write_file "expect_stdout.txt" (simulate_text r)

(* ---------- analog accuracy ---------- *)

(* Total |DDM - analog| edge count over every signal, divided by the
   analog count, on vary-mult8's nominal inputs.  DDM's parameters are
   fitted on single gates, so the multiplier is held-out data. *)
let analog () =
  let seed = seed_of_manifest (manifest ()) in
  let c, text = mult8_stim seed in
  let stim = ok_or_fail "mult8 stimulus" (Stimfile.parse_string text) in
  let drives = match Stimfile.bind stim c with Ok d -> d | Error m -> failwith m in
  let t_stop = (float_of_int (mult8_vectors - 1) *. mult8_period) +. 10_000. in
  let rd = Sim.run Sim.Ddm (Sim.spec ~drives ~t_stop ~tech c) in
  let ra = Asim.run (Asim.config ~t_stop tech) c ~drives in
  let ddm = Sim.edges rd in
  let err = ref 0 and total_a = ref 0 and total_d = ref 0 in
  for sid = 0 to N.signal_count c - 1 do
    let a = List.length (Asim.edges ra (N.signal_name c sid)) in
    let d = List.length ddm.(sid) in
    err := !err + abs (d - a);
    total_a := !total_a + a;
    total_d := !total_d + d
  done;
  print_endline
    (Json.to_string ~indent:false
       (Json.Obj
          [
            ("edge_err_vs_analog", Json.Num (float_of_int !err /. float_of_int (max 1 !total_a)));
            ("analog_edges", num !total_a);
            ("ddm_edges", num !total_d);
          ]))

(* ---------- spans ---------- *)

type span = { id : int; name : string; start : float; mutable stop : float; parent : int }

let tracing = ref false
let spans : span list ref = ref []
let nspans = ref 0
let open_spans : span list ref = ref []
let now = Unix.gettimeofday

let add_span name ~start ~stop =
  let parent = match !open_spans with p :: _ -> p.id | [] -> -1 in
  let s = { id = !nspans; name; start; stop; parent } in
  spans := s :: !spans;
  incr nspans;
  s

(* One branch when tracing is off. *)
let span name f =
  if not !tracing then f ()
  else begin
    let s = add_span name ~start:(now ()) ~stop:nan in
    open_spans := s :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- now ();
        open_spans := List.tl !open_spans)
      f
  end

(* Self time per span name: duration minus the part of the interval its
   child spans cover (children never overlap: one thread). *)
let self_times all =
  let child = Array.make (Array.length all) 0. in
  Array.iter
    (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.stop -. s.start))
    all;
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (prev +. (s.stop -. s.start -. child.(i))))
    all;
  tbl

let write_spans path all =
  let b = Buffer.create (64 * Array.length all) in
  Buffer.add_string b "[\n";
  Array.iteri
    (fun i s ->
      Printf.bprintf b "%s{\"id\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f,\"parent\":%d}\n"
        (if i = 0 then "" else ",") i s.name s.start s.stop s.parent)
    all;
  Buffer.add_string b "]\n";
  write_file path (Buffer.contents b)

(* ---------- traced replay ---------- *)

type replay = {
  mutable site_gaps : float list;  (** us between consecutive verdicts, reversed *)
  mutable handle : (string * float) list;  (** (op, us) per request, reversed *)
  mutable decode : float list;  (** us per request, reversed *)
  mutable encode : float list;  (** us per reply, reversed *)
  mutable kernel_stats : Stats.t option;
  mutable cone : Sim.Cone.totals option;
  mutable cache : int * int * int;  (** hits, misses, evictions *)
}

let fresh () =
  { site_gaps = []; handle = []; decode = []; encode = []; kernel_stats = None; cone = None;
    cache = (0, 0, 0) }

let op_name req (resp : P.response) =
  match req with
  | P.Load _ -> (
      match resp.P.rp_payload with
      | Ok r when Option.bind (Json.member "cache" r) Json.to_str = Some "hit" -> "load_hit"
      | _ -> "load_miss")
  | P.Query { qu_query = P.Q_edges _; _ } -> "query_edges"
  | P.Query { qu_query = P.Q_waveform _; _ } -> "query_waveform"
  | P.Query { qu_query = P.Q_offenders _; _ } -> "query_offenders"
  | P.Query { qu_query = P.Q_stats; _ } -> "query_stats"
  | P.Hello _ -> "hello"
  | P.Set_input _ -> "set_input"
  | P.Advance _ -> "advance"
  | P.Inject _ -> "inject"
  | P.Close _ -> "close"
  | P.Cache_stats -> "cache_stats"
  | P.Shutdown -> "shutdown"

(* The daemon's work on one request line, timed in three parts when
   tracing: decode ([Json.parse] + [Protocol.request_of_json]), dispatch
   ([Server.handle_line], which decodes and encodes internally too) and
   encode ([Protocol.response_to_line] of the reply). *)
let serve_line st conn line =
  if not !tracing then ignore (Server.handle_line conn line)
  else begin
    let t0 = now () in
    let decode what text of_json = ok_or_fail what (of_json (ok_or_fail what (Json.parse text))) in
    let req = decode "serve request" line P.request_of_json in
    let t1 = now () in
    let reply = span "serve.handle" (fun () -> Server.handle_line conn line) in
    let t2 = now () in
    let resp = decode "serve reply" reply P.response_of_json in
    let t3 = now () in
    ignore (P.response_to_line resp);
    let t4 = now () in
    st.handle <- (op_name req resp, (t2 -. t1) *. 1e6) :: st.handle;
    st.decode <- ((t1 -. t0) *. 1e6) :: st.decode;
    st.encode <- ((t4 -. t3) *. 1e6) :: st.encode
  end

let replay w seed =
  let st = fresh () in
  (* layer chain of [simulate] *)
  let c = span "netlist.parse" (fun () -> ok_or_fail "c.hnl" (Hnl.parse_file "c.hnl")) in
  let stim, drives =
    span "stim.bind" (fun () ->
        let stim = ok_or_fail "s.hsv" (Stimfile.parse_file "s.hsv") in
        match Stimfile.bind stim c with Ok d -> (stim, d) | Error m -> failwith m)
  in
  ignore (span "lint.preflight" (fun () -> Lint.preflight ~stim ~tech c));
  let compiled = span "engine.compile" (fun () -> Compiled.compile tech c) in
  let spec = Sim.spec ~drives ~t_stop:w.w_horizon ~tech c in
  let r =
    span "engine.kernel" (fun () ->
        let s = Sim.Session.start ~compiled Sim.Ddm spec in
        Sim.Session.advance s ~upto:infinity)
  in
  st.kernel_stats <- Some r.Sim.rs_stats;
  ignore (span "wave.digitize" (fun () -> Sim.edges r));
  span "wave.vcd" (fun () -> Vcd.write_file "trace.vcd" (Sim.vcd_dumps r));
  (* fault campaign, journaled as [faults --journal] does *)
  let cfg =
    Campaign.config ~seed:(sub seed 5) ~n:w.w_sites ~pulse ~t_stop:w.w_horizon ()
  in
  let writer = Journal.open_new "trace.journal" (Journal.header_of ~circuit:(N.name c) cfg) in
  let t_call = ref 0. and last = ref 0. in
  let on_verdict i v =
    if !tracing then begin
      let t = now () in
      if !last = 0. then ignore (add_span "fault.baseline" ~start:!t_call ~stop:t)
      else st.site_gaps <- ((t -. !last) *. 1e6) :: st.site_gaps;
      last := t
    end;
    span "fault.journal" (fun () -> Journal.write writer i v)
  in
  let campaign =
    span "fault.campaign" (fun () ->
        t_call := now ();
        Campaign.run ~on_verdict cfg tech c ~drives)
  in
  Journal.close writer;
  st.cone <- campaign.Campaign.cam_cone;
  ignore (span "fault.report" (fun () -> Fault_report.to_string campaign));
  (* variation corners, as [vary] runs them *)
  let vseed = sub seed 7 in
  let vcfg = Campaign.config ~seed:vseed ~n:w.w_vary_sites ~pulse ~t_stop:w.w_horizon () in
  let nominal = span "vary.campaign" (fun () -> Campaign.run vcfg tech c ~drives) in
  let sites = List.map (fun (v : Campaign.verdict) -> v.Campaign.vd_site) nominal.Campaign.cam_verdicts in
  let sigmas = Sampler.sigmas ~device:sigma_device ~chip:sigma_chip ~lot:sigma_lot () in
  let samples =
    List.init w.w_corners (fun k ->
        let overlay =
          span "vary.sample" (fun () -> Sampler.sample ~stress_hours sigmas ~seed:vseed ~index:k c)
        in
        ignore (span "tech.overlay_compile" (fun () -> Compiled.compile ~overlay tech c));
        let cam =
          span "vary.campaign" (fun () ->
              Campaign.run { vcfg with Campaign.overlay; sites = Some sites } tech c ~drives)
        in
        (k, Param_overlay.fingerprint overlay, cam.Campaign.cam_verdicts))
  in
  ignore
    (span "vary.report" (fun () ->
         Vary_report.to_string
           (Vary_report.make ~circuit:(N.name c) ~engine:"ddm" ~seed:vseed ~sigmas ~stress_hours
              ~nominal:nominal.Campaign.cam_verdicts ~samples ())));
  (* the serve script, through the same dispatch the daemon uses *)
  let server = Server.create (Server.default_config ()) in
  let conn = Server.connect server in
  List.iter
    (fun line -> if line <> "" then serve_line st conn line)
    (String.split_on_char '\n' (read_file "serve.ndjson"));
  let cache = Server.cache server in
  st.cache <- (Circuit_cache.hits cache, Circuit_cache.misses cache, Circuit_cache.evictions cache);
  st

(* Layers on the CLI path of each workload, for bin.remainder_s. *)
let chain w =
  match w.w_name with
  | "sim-rand40k" ->
      [ "netlist.parse"; "stim.bind"; "lint.preflight"; "engine.compile"; "engine.kernel";
        "wave.digitize"; "wave.vcd" ]
  | "faults-rand5k" ->
      [ "netlist.parse"; "stim.bind"; "lint.preflight"; "fault.campaign"; "fault.baseline";
        "fault.journal"; "fault.report" ]
  | "vary-mult8" ->
      [ "netlist.parse"; "stim.bind"; "lint.preflight"; "vary.sample"; "vary.campaign";
        "vary.report" ]
  | _ -> [ "serve.handle" ]

let trace () =
  let m = manifest () in
  let w = workload_of_manifest m and seed = seed_of_manifest m in
  (* a discarded warm-up pass, so that neither timed pass pays first-run
     costs; untraced, the span function is a single branch *)
  ignore (replay w seed);
  Gc.compact ();
  let t0 = now () in
  ignore (replay w seed);
  let untraced = now () -. t0 in
  Gc.compact ();
  tracing := true;
  let t0 = now () in
  let st = replay w seed in
  let traced = now () -. t0 in
  tracing := false;
  let all = Array.of_list (List.rev !spans) in
  write_spans "spans.json" all;
  let self = self_times all in
  let get name = Option.value ~default:0. (Hashtbl.find_opt self name) in
  let floats l = Json.Arr (List.map (fun f -> Json.Num f) l) in
  let stats = Option.get st.kernel_stats in
  (* no cone context (incremental refused): every site fell back *)
  let cone =
    Option.value st.cone
      ~default:
        { Sim.Cone.ct_exact = 0; ct_fallback = w.w_sites; ct_cone_gates = 0; ct_cone_events = 0 }
  in
  let hits, misses, evictions = st.cache in
  let names =
    [ "netlist.parse"; "stim.bind"; "lint.preflight"; "engine.compile"; "engine.kernel";
      "wave.digitize"; "wave.vcd"; "fault.campaign"; "fault.baseline"; "fault.journal";
      "fault.report"; "vary.sample"; "tech.overlay_compile"; "vary.campaign"; "vary.report";
      "serve.handle" ]
  in
  print_endline
    (Json.to_string ~indent:false
       (Json.Obj
          [
            ("self_s", Json.Obj (List.map (fun n -> (n, Json.Num (get n))) names));
            ("chain_s", Json.Num (List.fold_left (fun acc n -> acc +. get n) 0. (chain w)));
            ("untraced_s", Json.Num untraced);
            ("traced_s", Json.Num traced);
            ("events_processed", num stats.Stats.events_processed);
            ("events_scheduled", num stats.Stats.events_scheduled);
            ("site_gaps_us", floats (List.rev st.site_gaps));
            ( "handle_us",
              Json.Arr
                (List.rev_map (fun (op, us) -> Json.Arr [ Json.Str op; Json.Num us ]) st.handle) );
            ("decode_us", floats (List.rev st.decode));
            ("encode_us", floats (List.rev st.encode));
            ("cache_hits", num hits);
            ("cache_misses", num misses);
            ("cache_evictions", num evictions);
            ("cone_exact", num cone.Sim.Cone.ct_exact);
            ("cone_fallback", num cone.Sim.Cone.ct_fallback);
            ("cone_gates", num cone.Sim.Cone.ct_cone_gates);
            ("cone_events", num cone.Sim.Cone.ct_cone_events);
          ]))

let () =
  let usage () =
    prerr_endline
      "usage: hbench gen WORKLOAD SEED DIR | expect DIR | analog DIR | trace DIR";
    exit 2
  in
  let in_dir dir f =
    Sys.chdir dir;
    f ()
  in
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen"; w; seed; dir ] -> (
      match int_of_string_opt seed with Some s -> gen w s dir | None -> usage ())
  | [ "expect"; dir ] -> in_dir dir expect
  | [ "analog"; dir ] -> in_dir dir analog
  | [ "trace"; dir ] -> in_dir dir trace
  | _ -> usage ()
