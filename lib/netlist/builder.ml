module Gate_kind = Halotis_logic.Gate_kind
module Value = Halotis_logic.Value

type sig_info = {
  mutable s_driver : Netlist.gate_id option;
  mutable s_loads : (Netlist.gate_id * int) list; (* reversed *)
  mutable s_is_input : bool;
  mutable s_is_output : bool;
  s_constant : Value.t option;
  s_name : string;
}

type gate_info = {
  g_name : string;
  g_kind : Gate_kind.t;
  g_fanin : Netlist.signal_id array;
  g_output : Netlist.signal_id;
  g_input_vt : float option array;
  g_extra_load : float;
}

(* A minimal growable vector (Dynarray only landed in OCaml 5.2). *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (max 16 (2 * v.len)) x in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i =
    assert (i >= 0 && i < v.len);
    v.data.(i)

  let to_array v = Array.sub v.data 0 v.len
end

type t = {
  name : string;
  sigs : sig_info Vec.t;
  gts : gate_info Vec.t;
  by_name : (string, Netlist.signal_id) Hashtbl.t;
  gate_names : (string, unit) Hashtbl.t;
  mutable inputs : Netlist.signal_id list; (* reversed *)
  mutable outputs : Netlist.signal_id list; (* reversed *)
  consts : (Value.t, Netlist.signal_id) Hashtbl.t;
  mutable fresh_counter : int;
  mutable finalized : bool;
}

let create name =
  {
    name;
    sigs = Vec.create ();
    gts = Vec.create ();
    by_name = Hashtbl.create 64;
    gate_names = Hashtbl.create 64;
    inputs = [];
    outputs = [];
    consts = Hashtbl.create 4;
    fresh_counter = 0;
    finalized = false;
  }

let check_live b = if b.finalized then invalid_arg "Builder: already finalized"

let new_signal b ~name ~constant =
  check_live b;
  if Hashtbl.mem b.by_name name then
    invalid_arg (Printf.sprintf "Builder: signal name %S already used" name);
  let id = b.sigs.Vec.len in
  let info =
    {
      s_driver = None;
      s_loads = [];
      s_is_input = false;
      s_is_output = false;
      s_constant = constant;
      s_name = name;
    }
  in
  Vec.push b.sigs info;
  Hashtbl.replace b.by_name name id;
  id

let input b name =
  let id = new_signal b ~name ~constant:None in
  (Vec.get b.sigs id).s_is_input <- true;
  b.inputs <- id :: b.inputs;
  id

let signal b name =
  match Hashtbl.find_opt b.by_name name with
  | Some id -> id
  | None -> new_signal b ~name ~constant:None

let fresh_signal ?(hint = "n") b =
  let rec next () =
    let name = Printf.sprintf "%s%d" hint b.fresh_counter in
    b.fresh_counter <- b.fresh_counter + 1;
    if Hashtbl.mem b.by_name name then next () else name
  in
  new_signal b ~name:(next ()) ~constant:None

let const b value =
  match Hashtbl.find_opt b.consts value with
  | Some id -> id
  | None ->
      let name = Printf.sprintf "const_%c" (Value.to_char value) in
      let id = new_signal b ~name ~constant:(Some value) in
      Hashtbl.replace b.consts value id;
      id

let add_gate ?name ?input_vt ?(extra_load = 0.) b kind ~inputs ~output =
  check_live b;
  let arity = Gate_kind.arity kind in
  if List.length inputs <> arity then
    invalid_arg
      (Printf.sprintf "Builder: gate kind %s expects %d inputs, got %d"
         (Gate_kind.name kind) arity (List.length inputs));
  let gname =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "%s_%d" (Gate_kind.name kind) b.gts.Vec.len
  in
  if Hashtbl.mem b.gate_names gname then
    invalid_arg (Printf.sprintf "Builder: gate name %S already used" gname);
  let vt =
    match input_vt with
    | None -> Array.make arity None
    | Some l ->
        if List.length l <> arity then
          invalid_arg "Builder: input_vt length must match gate arity";
        Array.of_list l
  in
  let out_info = Vec.get b.sigs output in
  if out_info.s_driver <> None then
    invalid_arg (Printf.sprintf "Builder: signal %S already driven" out_info.s_name);
  if out_info.s_is_input then
    invalid_arg (Printf.sprintf "Builder: cannot drive primary input %S" out_info.s_name);
  if out_info.s_constant <> None then
    invalid_arg (Printf.sprintf "Builder: cannot drive constant %S" out_info.s_name);
  let gid = b.gts.Vec.len in
  out_info.s_driver <- Some gid;
  List.iteri
    (fun pin sid ->
      let info = Vec.get b.sigs sid in
      info.s_loads <- (gid, pin) :: info.s_loads)
    inputs;
  let gate =
    {
      g_name = gname;
      g_kind = kind;
      g_fanin = Array.of_list inputs;
      g_output = output;
      g_input_vt = vt;
      g_extra_load = extra_load;
    }
  in
  Vec.push b.gts gate;
  Hashtbl.replace b.gate_names gname ();
  gid

let mark_output b id =
  check_live b;
  let info = Vec.get b.sigs id in
  if not info.s_is_output then begin
    info.s_is_output <- true;
    b.outputs <- id :: b.outputs
  end

let finalize b =
  check_live b;
  b.finalized <- true;
  let signals =
    Array.mapi
      (fun i (info : sig_info) ->
        {
          Netlist.signal_id = i;
          signal_name = info.s_name;
          driver = info.s_driver;
          loads = Array.of_list (List.rev info.s_loads);
          is_primary_input = info.s_is_input;
          is_primary_output = info.s_is_output;
          constant = info.s_constant;
        })
      (Vec.to_array b.sigs)
  in
  let gates =
    Array.mapi
      (fun i (g : gate_info) ->
        {
          Netlist.gate_id = i;
          gate_name = g.g_name;
          kind = g.g_kind;
          fanin = g.g_fanin;
          output = g.g_output;
          input_vt = g.g_input_vt;
          extra_load = g.g_extra_load;
        })
      (Vec.to_array b.gts)
  in
  Netlist.make ~name:b.name ~signals ~gates ~primary_inputs:(List.rev b.inputs)
    ~primary_outputs:(List.rev b.outputs)
