module Netlist = Halotis_netlist.Netlist
module Sim = Halotis_engine.Sim
module Stats = Halotis_engine.Stats
module Digital = Halotis_wave.Digital
module Transition = Halotis_wave.Transition
module Hazard = Halotis_sta.Hazard
module Survival = Halotis_sta.Survival
module Delay_model = Halotis_delay.Delay_model
module Prng = Halotis_util.Prng
module Stop = Halotis_guard.Stop
module Budget = Halotis_guard.Budget
module Diag = Halotis_guard.Diag

type engine = Sim.engine = Ddm | Cdm | Classic_inertial

let engine_to_string = Sim.engine_to_string
let engine_of_string = Sim.engine_of_string

type outcome = Propagated | Electrically_masked | Logically_masked | Timed_out

let outcome_to_string = function
  | Propagated -> "propagated"
  | Electrically_masked -> "electrically-masked"
  | Logically_masked -> "logically-masked"
  | Timed_out -> "timed-out"

let outcome_of_string = function
  | "propagated" -> Some Propagated
  | "electrically-masked" -> Some Electrically_masked
  | "logically-masked" -> Some Logically_masked
  | "timed-out" -> Some Timed_out
  | _ -> None

type verdict = {
  vd_site : Site.t;
  vd_outcome : outcome;
  vd_po_edges_delta : int;
  vd_first_diff_output : string option;
  vd_stats : Stats.t;
  vd_pruned : bool;
}

type config = {
  engine : engine;
  seed : int;
  n : int;
  pulse : Inject.pulse;
  t_stop : float;
  window : (float * float) option;
  site_budget : Budget.t;
  prune : bool;
  incremental : bool;
  overlay : Halotis_tech.Param_overlay.t;
  sites : Site.t list option;
  range : (int * int) option;
  completed : verdict list;
  quarantined : int list;
  limit : int option;
}

let default =
  {
    engine = Ddm;
    seed = 1;
    n = 100;
    pulse = Inject.pulse ~width:150. ();
    t_stop = 10_000.;
    window = None;
    site_budget = Budget.unlimited;
    prune = false;
    incremental = true;
    overlay = Halotis_tech.Param_overlay.empty;
    sites = None;
    range = None;
    completed = [];
    quarantined = [];
    limit = None;
  }

let config ?(engine = Ddm) ?(seed = 1) ?(n = 100) ?(pulse = Inject.pulse ~width:150. ())
    ?window ?(site_budget = Budget.unlimited) ?(prune = false) ?(incremental = true)
    ?(overlay = Halotis_tech.Param_overlay.empty) ?sites ?range ?(completed = [])
    ?(quarantined = []) ?limit ~t_stop () =
  if n < 0 then invalid_arg "Campaign.config: n must be non-negative";
  if t_stop <= 0. then invalid_arg "Campaign.config: t_stop must be positive";
  {
    engine;
    seed;
    n;
    pulse;
    t_stop;
    window;
    site_budget;
    prune;
    incremental;
    overlay;
    sites;
    range;
    completed;
    quarantined;
    limit;
  }

type t = {
  cam_circuit : Netlist.t;
  cam_config : config;
  cam_verdicts : verdict list;
  cam_baseline_stats : Stats.t;
  cam_total_stats : Stats.t;
  cam_sites_total : int;
  cam_complete : bool;
  cam_range : (int * int) option;
  cam_cone : Sim.Cone.totals option;
  cam_quarantined : (int * Site.t) list;
}

(* One injected run reduced to what classification needs: the engine
   counters, and the digitized edges of every signal that may differ
   from the baseline — [ob_edges.(k)] belongs to signal [ob_scope.(k)],
   and any signal outside the scope has the baseline's edges.  A full
   run's scope is every signal; a cone graft's is its cone, so
   classifying it costs the cone, not the circuit. *)
type observed = {
  ob_scope : Netlist.signal_id array;
  ob_edges : Digital.edge list array;
  ob_stats : Stats.t;
}

(* [base] scopes every signal, so its edges index by signal id;
   [po_rank.(sid)] is the position of [sid] among the (distinct, see
   {!Halotis_netlist.Builder.mark_output}) primary outputs, or [-1]. *)
let classify ~c ~is_classic ~po_rank ~(base : observed) ~(site : Site.t) (inj : observed) =
  let delta = Stats.diff inj.ob_stats base.ob_stats in
  let victim = site.Site.st_signal in
  let differs k = inj.ob_edges.(k) <> base.ob_edges.(inj.ob_scope.(k)) in
  (* the first differing primary output in declaration order, and the
     net edge-count change over the primary outputs (zero outside the
     scope) *)
  let first_po = ref (-1) and po_edges_delta = ref 0 in
  Array.iteri
    (fun k sid ->
      let rank = po_rank.(sid) in
      if rank >= 0 then begin
        po_edges_delta :=
          !po_edges_delta + List.length inj.ob_edges.(k) - List.length base.ob_edges.(sid);
        if (!first_po < 0 || rank < po_rank.(!first_po)) && differs k then first_po := sid
      end)
    inj.ob_scope;
  let po_diff = if !first_po < 0 then None else Some !first_po in
  let po_edges_delta = !po_edges_delta in
  let outcome =
    if po_diff <> None then Propagated
    else begin
      let n = Array.length inj.ob_scope in
      let rec downstream_from k =
        k < n && ((inj.ob_scope.(k) <> victim && differs k) || downstream_from (k + 1))
      in
      let downstream_differs = downstream_from 0 in
      (* The classic engine records the forced victim toggles as
         emitted transitions; subtract them so only fanout responses
         count as electrical activity. *)
      let victim_extra =
        if not is_classic then 0
        else
          match Array.find_index (Int.equal victim) inj.ob_scope with
          | Some k -> List.length inj.ob_edges.(k) - List.length base.ob_edges.(victim)
          | None -> 0
      in
      let emitted_downstream = delta.Stats.transitions_emitted - victim_extra in
      if downstream_differs then Electrically_masked
      else if
        emitted_downstream > 0
        || delta.Stats.transitions_annulled > 0
        || delta.Stats.events_filtered > 0
      then Electrically_masked
      else if delta.Stats.noop_evaluations > 0 then Logically_masked
      else
        (* The strike never even registered at a fanout input: a
           sub-threshold runt, dead on the struck node itself. *)
        Electrically_masked
    end
  in
  {
    vd_site = site;
    vd_outcome = outcome;
    vd_po_edges_delta = po_edges_delta;
    vd_first_diff_output = Option.map (Netlist.signal_name c) po_diff;
    vd_stats = delta;
    vd_pruned = false;
  }

let run ?on_verdict cfg tech c ~drives =
  let { sites; range; completed; quarantined; limit; _ } = cfg in
  (* Every engine run flows through the {!Sim} facade; the baseline
     never carries the per-site budget — it is the reference every
     verdict is diffed against, so it must be whole.  Every run — the
     baselines included — prices its coefficients at [cfg.overlay]'s
     corner. *)
  let spec ?injections ?budget () =
    Sim.spec ~drives ?injections ~t_stop:cfg.t_stop ?budget
      ~overlay:cfg.overlay ~tech c
  in
  let ddm_baseline_run = Sim.run Sim.Ddm (spec ()) in
  let ddm_baseline =
    match Sim.iddm ddm_baseline_run with Some r -> r | None -> assert false
  in
  let sites =
    match sites with
    | Some s -> s
    | None ->
        let t0, t1 = match cfg.window with Some w -> w | None -> (0., cfg.t_stop) in
        let prng = Prng.create ~seed:cfg.seed in
        Site.sample ~baseline:ddm_baseline ~prng ~n:cfg.n ~t0 ~t1
  in
  let every_signal = Array.init (Netlist.signal_count c) Fun.id in
  let po_rank = Array.make (Netlist.signal_count c) (-1) in
  List.iteri (fun rank sid -> po_rank.(sid) <- rank) (Netlist.primary_outputs c);
  let observe (r : Sim.result) =
    { ob_scope = every_signal; ob_edges = Sim.edges r; ob_stats = r.Sim.rs_stats }
  in
  let base_run =
    match cfg.engine with
    | Ddm -> ddm_baseline_run
    | Cdm | Classic_inertial -> Sim.run cfg.engine (spec ())
  in
  let base = observe base_run in
  (* Static pruning oracle.  Only armed when every injected run would
     be whole anyway: a finite per-site budget can turn a provably
     masked site into [Timed_out], and pruning must never change a
     verdict.  The classic engine has no pulse-width semantics to bound
     statically, and the survival analysis prices its bounds straight
     from [tech], so a non-empty overlay (a sampled corner) disarms it
     too. *)
  let pruner =
    if
      not
        (cfg.prune
        && Budget.is_unlimited cfg.site_budget
        && Halotis_tech.Param_overlay.is_empty cfg.overlay)
    then None
    else
      match cfg.engine with
      | Classic_inertial -> None
      | Ddm | Cdm -> (
          let kind =
            match cfg.engine with Ddm -> Delay_model.Ddm | _ -> Delay_model.Cdm
          in
          match Sim.iddm base_run with
          | None -> None
          | Some baseline ->
              Some
                (Survival.pruner ~kind tech c ~baseline ~t_stop:cfg.t_stop
                   ~width:cfg.pulse.Inject.width ~slope:cfg.pulse.Inject.slope))
  in
  (* Incremental cone re-simulation.  Armed only when every injected
     run would be whole anyway (unlimited per-site budget — a cone run
     cannot reproduce the exact trip point of a budgeted full run) and
     the engine has waveform semantics; [Sim.Cone.create] additionally
     refuses a truncated or tie-hazardous baseline.  When armed, a site
     whose cone graft is exact skips the full re-run entirely; any
     fallback re-runs it the old way, so verdicts, reports and journals
     are byte-identical with the optimization on or off. *)
  let cone_ctx =
    if not (cfg.incremental && Budget.is_unlimited cfg.site_budget) then None
    else
      match cfg.engine with
      | Classic_inertial -> None
      | Ddm | Cdm -> Sim.Cone.create cfg.engine (spec ()) ~baseline:base_run
  in
  let run_site_full site =
    observe
      (Sim.run cfg.engine
         (spec ~injections:[ Inject.injection site cfg.pulse ] ~budget:cfg.site_budget ()))
  in
  let run_site site =
    match cone_ctx with
    | None -> run_site_full site
    | Some ctx -> (
        match Sim.Cone.run_site ctx (Inject.injection site cfg.pulse) with
        | Sim.Cone.Exact { cone_signals; cone_edges; stats; _ } ->
            { ob_scope = cone_signals; ob_edges = cone_edges; ob_stats = stats }
        | Sim.Cone.Fallback _ -> run_site_full site)
  in
  let is_classic = cfg.engine = Classic_inertial in
  let site_arr = Array.of_list sites in
  let nsites = Array.length site_arr in
  (* [range] restricts this call to global site indices [lo, hi) — the
     shard protocol.  The default covers everything. *)
  let lo, hi = match range with Some r -> r | None -> (0, nsites) in
  if lo < 0 || hi < lo || hi > nsites then
    Diag.fail ~code:"shard-range"
      (Printf.sprintf "shard range [%d, %d) does not fit the %d-site campaign" lo hi
         nsites);
  (* Quarantined sites (the supervisor gave up on them) are carved out
     of the range: they are never simulated, own no verdict, and are
     reported explicitly — the only permitted delta against an
     unsupervised run. *)
  let quarantined = List.sort_uniq Int.compare quarantined in
  List.iter
    (fun i ->
      if i < lo || i >= hi then
        Diag.fail ~code:"journal-mismatch"
          (Printf.sprintf "quarantined site %d is outside the campaign range [%d, %d)" i
             lo hi))
    quarantined;
  (* [active]: the global indices this run still owns, in order. *)
  let active =
    Array.of_list
      (List.filter
         (fun i -> not (List.mem i quarantined))
         (List.init (hi - lo) (fun i -> lo + i)))
  in
  let nactive = Array.length active in
  (* Resume: [completed] must be a verdict-for-verdict prefix of the
     (range's slice of the) deterministic site list — anything else
     means the journal belongs to a different campaign. *)
  let ncompleted = List.length completed in
  if ncompleted > nactive then
    Diag.fail ~code:"journal-mismatch"
      (Printf.sprintf "journal has %d verdicts but the campaign range has only %d sites"
         ncompleted nactive);
  List.iteri
    (fun i (v : verdict) ->
      if Site.compare site_arr.(active.(i)) v.vd_site <> 0 then
        Diag.fail ~code:"journal-mismatch"
          (Printf.sprintf
             "journal verdict %d was recorded at a different site — wrong seed, circuit or \
              campaign parameters"
             active.(i)))
    completed;
  let fresh_total = nactive - ncompleted in
  let fresh_count =
    match limit with Some k -> min (max 0 k) fresh_total | None -> fresh_total
  in
  let static_verdict site =
    match pruner with
    | None -> None
    | Some pr -> (
        match
          Survival.site_verdict pr ~signal:site.Site.st_signal
            ~rising:(site.Site.st_polarity = Transition.Rising)
            ~at:site.Site.st_at
        with
        | Survival.Unknown -> None
        | Survival.Proven_electrically_masked -> Some Electrically_masked
        | Survival.Proven_logically_masked -> Some Logically_masked)
  in
  let fresh = ref [] in
  for i = 0 to fresh_count - 1 do
    let idx = active.(ncompleted + i) in
    let site = site_arr.(idx) in
    let v =
      match static_verdict site with
      | Some outcome ->
          (* proven statically: no injected run happens, so the verdict
             carries zero delta counters *)
          {
            vd_site = site;
            vd_outcome = outcome;
            vd_po_edges_delta = 0;
            vd_first_diff_output = None;
            vd_stats = Stats.create ();
            vd_pruned = true;
          }
      | None ->
          let inj = run_site site in
          if not (Stop.completed inj.ob_stats.Stats.stopped_by) then
            (* the per-site budget tripped: the run is a prefix, so no
               verdict about masking can be trusted — record the trip *)
            {
              vd_site = site;
              vd_outcome = Timed_out;
              vd_po_edges_delta = 0;
              vd_first_diff_output = None;
              vd_stats = Stats.diff inj.ob_stats base.ob_stats;
              vd_pruned = false;
            }
          else classify ~c ~is_classic ~po_rank ~base ~site inj
    in
    (match on_verdict with Some f -> f idx v | None -> ());
    fresh := v :: !fresh
  done;
  let verdicts = completed @ List.rev !fresh in
  (* Rebuild the all-runs total from the per-verdict deltas: the raw
     counters of run [i] are [delta_i + base], integer-exact, so a
     resumed campaign reconstructs the same total an uninterrupted one
     accumulates.  Pruned sites never ran, so they contribute
     nothing. *)
  let total = Stats.create () in
  List.iter
    (fun (v : verdict) ->
      if not v.vd_pruned then begin
        Stats.merge total v.vd_stats;
        Stats.merge total base.ob_stats
      end)
    verdicts;
  {
    cam_circuit = c;
    cam_config = cfg;
    cam_verdicts = verdicts;
    cam_baseline_stats = Stats.copy base.ob_stats;
    cam_total_stats = total;
    cam_sites_total = nsites;
    cam_complete = List.length verdicts = nactive;
    cam_range = range;
    cam_cone = Option.map Sim.Cone.totals cone_ctx;
    cam_quarantined = List.map (fun i -> (i, site_arr.(i))) quarantined;
  }

let counts t =
  List.fold_left
    (fun (p, e, l) v ->
      match v.vd_outcome with
      | Propagated -> (p + 1, e, l)
      | Electrically_masked -> (p, e + 1, l)
      | Logically_masked -> (p, e, l + 1)
      | Timed_out -> (p, e, l))
    (0, 0, 0) t.cam_verdicts

let pruned_count t =
  List.fold_left (fun n v -> if v.vd_pruned then n + 1 else n) 0 t.cam_verdicts

let timed_out t =
  List.fold_left
    (fun n v -> if v.vd_outcome = Timed_out then n + 1 else n)
    0 t.cam_verdicts

let masking_rate t =
  let p, e, l = counts t in
  let n = p + e + l in
  if n = 0 then 0. else float_of_int (e + l) /. float_of_int n

let vulnerability t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun v ->
      if v.vd_outcome = Propagated then
        let g = v.vd_site.Site.st_gate in
        Hashtbl.replace tbl g (1 + Option.value ~default:0 (Hashtbl.find_opt tbl g)))
    t.cam_verdicts;
  Hashtbl.fold (fun g n acc -> (g, n) :: acc) tbl []
  |> List.sort (fun (ga, na) (gb, nb) ->
         match Int.compare nb na with 0 -> Int.compare ga gb | c -> c)

let hazard_crosscheck t h =
  List.filter_map
    (fun v ->
      if v.vd_outcome <> Propagated then None
      else
        let covered =
          match Hazard.window h v.vd_site.Site.st_signal with
          | Some w ->
              v.vd_site.Site.st_at >= w.Hazard.earliest
              && v.vd_site.Site.st_at <= w.Hazard.latest
          | None -> false
        in
        Some (v, covered))
    t.cam_verdicts
