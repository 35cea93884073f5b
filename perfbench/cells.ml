(* The co-simulation cells of each workload, and the per-cell correctness
   checks. A cell is one Driver.run; it is the unit the benchmark counts as
   attempted or failed. *)

open Scd_cosim
module W = Scd_workloads.Workload

type t = {
  id : string;  (** vm/scheme/tag/script/scale — the digest key. *)
  tag : string;  (** The machine configuration's short name. *)
  vm : string;
  scheme : Scd_core.Scheme.t;
  script : W.t;
  scale : W.scale;
  config : Driver.run_config;
}

let script name =
  match Scd_workloads.Registry.find name with
  | Some w -> w
  | None -> invalid_arg ("unknown script " ^ name)

let source c = W.source c.script c.scale

let cell_id ~vm ~scheme ~tag ~script ~scale =
  String.concat "/"
    [ vm; Scd_core.Scheme.name scheme; tag; script; W.scale_name scale ]

let make ~tag ~machine ?cs ?(multi_table = false) ?(scale = W.Sim) ~seed vm
    scheme (w : W.t) =
  {
    id = cell_id ~vm ~scheme ~tag ~script:w.name ~scale;
    tag;
    vm;
    scheme;
    script = w;
    scale;
    config =
      {
        Driver.default_config with
        frontend = Frontend.get vm;
        scheme;
        machine;
        context_switch_interval = cs;
        multi_table;
        seed;
      };
  }

(* The id of the same cell under another scheme. *)
let with_scheme c scheme =
  cell_id ~vm:c.vm ~scheme ~tag:c.tag ~script:c.script.name ~scale:c.scale

let vms = [ "lua"; "js" ]

(* fig7's evaluation: every Table III script on both interpreters, baseline
   and SCD, at the main-evaluation scale on the paper's simulator core. *)
let eval_sim ~seed =
  List.concat_map
    (fun w ->
      List.concat_map
        (fun vm ->
          List.map
            (fun scheme ->
              make ~tag:"sim" ~machine:Scd_uarch.Config.simulator ~seed vm
                scheme w)
            Scd_core.Scheme.[ Baseline; Scd ])
        vms)
    Scd_workloads.Registry.all

(* The code paths eval-sim never takes: dual-issue consumption, the
   cell-by-cell push emitters under a context-switch interval (for both
   schemes, so the fidelity gap can still be stated), and the stack VM's
   per-site jump tables. *)
let offpath_scripts =
  [ "fibo"; "ackermann"; "n-body"; "mandelbrot"; "k-nucleotide" ]

let context_switch_interval = 10_000

let offpath_scale = W.Small

let offpath_sim ~seed =
  let sim = Scd_uarch.Config.simulator in
  let cs = context_switch_interval and scale = offpath_scale in
  List.concat_map
    (fun name ->
      let w = script name in
      List.concat_map
        (fun vm ->
          [
            make ~tag:"high-end" ~machine:Scd_uarch.Config.high_end ~scale
              ~seed vm Scd w;
            make ~tag:"cs10k" ~machine:sim ~cs ~scale ~seed vm Scd w;
            make ~tag:"cs10k" ~machine:sim ~cs ~scale ~seed vm Baseline w;
          ]
          @
          if vm = "js" then
            [ make ~tag:"multi-table" ~machine:sim ~multi_table:true ~scale
                ~seed vm Scd w ]
          else [])
        vms)
    offpath_scripts

(* fig7's cells at quick (test) scale: the subset of regen-quick's cells
   that its traced pass splits into layers. They carry the sweep's cache
   key, under which regen-quick records their digests. *)
let fig7_quick ~seed =
  List.concat_map
    (fun w ->
      List.concat_map
        (fun vm ->
          List.map
            (fun scheme ->
              let c =
                make ~tag:"sim" ~machine:Scd_uarch.Config.simulator
                  ~scale:W.Test ~seed vm scheme w
              in
              let key = (Scd_experiments.Sweep.cell ~scale:W.Test vm scheme w).key in
              { c with id = "regen-quick/" ^ key })
            Scd_core.Scheme.all)
        vms)
    Scd_workloads.Registry.all

(* A seeded permutation of the cell order. Every cell starts from empty
   caches, BTB and predictors, so the order moves host timings only. *)
let shuffle ~seed cells =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list cells in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Correctness                                                          *)
(* ------------------------------------------------------------------ *)

let digest r = Digest.to_hex (Digest.string (Result.to_string r))

(* Expected digests: one "<key> <md5 hex>" line per cell. *)
let load_expected path =
  let tbl = Hashtbl.create 1024 in
  In_channel.with_open_text path (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          (match String.split_on_char ' ' (String.trim line) with
           | [ key; hex ] -> Hashtbl.replace tbl key hex
           | [ "" ] -> ()
           | _ -> failwith ("malformed expected-digest line: " ^ line));
          loop ()
      in
      loop ());
  tbl

let save_expected path entries =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (key, hex) -> Printf.fprintf oc "%s %s\n" key hex)
        (List.sort compare entries))

(* Keys whose digest differs from (or is missing in) the expected table. *)
let digest_failures expected results =
  List.filter_map
    (fun (key, r) ->
      match Hashtbl.find_opt expected key with
      | Some hex when String.equal hex (digest r) -> None
      | _ -> Some key)
    results

(* Script output and bytecode count depend on the (vm, script, scale) alone:
   no scheme or machine configuration may change them. Within each group the
   most common (output, bytecodes) pair is the reference, and every cell
   that disagrees with it fails. *)
let invariant_failures results =
  let groups = Hashtbl.create 64 in
  List.iter
    (fun (group, key, (r : Result.t)) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt groups group) in
      Hashtbl.replace groups group ((key, (r.output, r.bytecodes)) :: prev))
    results;
  Hashtbl.fold
    (fun _ members acc ->
      let count v =
        List.length (List.filter (fun (_, v') -> v' = v) members)
      in
      let reference, _ =
        List.fold_left
          (fun (best, n) (_, v) ->
            let c = count v in
            if c > n then (Some v, c) else (best, n))
          (None, 0) members
      in
      List.fold_left
        (fun acc (key, v) -> if Some v = reference then acc else key :: acc)
        acc members)
    groups []

let group c = String.concat "/" [ c.vm; c.script.name; W.scale_name c.scale ]
