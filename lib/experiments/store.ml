(* On-disk layer of the sweep cache: one Result codec file per cell. *)

open Scd_cosim

let default_dir = "_scd_cache"
let extension = ".scdres"
let quarantine_extension = ".corrupt"

(* Bump when the on-disk file framing (not the Result codec) changes. The
   version participates in the filename hash, so files written by an older
   framing are simply never read again — they are not misdecoded, and
   [verify] reports them as errors. History: 1 = bare Result payload;
   2 = "sum <fnv1a>" integrity header ahead of the payload. *)
let format_version = 2

type t = {
  dir : string;
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable corrupt : int;
}

(* 32-bit FNV-1a. Filenames built from sanitised keys alone can collide
   (every non-filename character folds to '-'); appending a hash of the raw
   key keeps distinct keys in distinct files. The same hash doubles as the
   payload checksum in the integrity header. *)
let fnv1a key =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF)
    key;
  !h

let sanitize key =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c
      | _ -> '-')
    key

let mangle key = Printf.sprintf "%s-%08x" (sanitize key) (fnv1a key)

(* Cache entries self-invalidate on codec or framing changes: both versions
   are in the key (hence the filename) and the schema version is in the
   payload header too, so a bumped [Result.schema_version] or store framing
   never reads — or clobbers — old files. *)
let versioned key =
  Printf.sprintf "s%d.v%d|%s" format_version Result.schema_version key

let path t key = Filename.concat t.dir (mangle (versioned key) ^ extension)
let file_of_key t ~key = path t key

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
  end
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "%s is not a directory" dir)

let create dir =
  mkdir_p dir;
  { dir; mutex = Mutex.create (); hits = 0; misses = 0; stores = 0; corrupt = 0 }

let dir t = t.dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Integrity framing                                                   *)
(* ------------------------------------------------------------------ *)

(* Every stored file is "sum <8 hex digits>\n" followed by the Result
   payload, with the checksum taken over the payload bytes. The Result
   codec's [end] marker catches truncation on its own, but only the
   checksum catches a bit flip that lands inside a digit or the output
   string and still parses — the silent-corruption case the fault injector
   (Scd_check.Faults) exercises. *)
let frame payload = Printf.sprintf "sum %08x\n%s" (fnv1a payload) payload

let unframe text =
  let fail m = Error m in
  match String.index_opt text '\n' with
  | None -> fail "missing integrity header"
  | Some nl ->
    if nl < 5 || String.sub text 0 4 <> "sum " then
      fail "missing integrity header"
    else
      let declared = String.sub text 4 (nl - 4) in
      let payload = String.sub text (nl + 1) (String.length text - nl - 1) in
      (match int_of_string_opt ("0x" ^ declared) with
       | None -> fail (Printf.sprintf "bad integrity header %S" declared)
       | Some sum ->
         if sum <> fnv1a payload then
           fail
             (Printf.sprintf "checksum mismatch: header %08x, payload %08x"
                sum (fnv1a payload))
         else Ok payload)

let decode text =
  match unframe text with Ok payload -> Result.of_string payload | Error _ as e -> e

(* ------------------------------------------------------------------ *)
(* Load / save                                                         *)
(* ------------------------------------------------------------------ *)

(* A file that fails to decode is quarantined — renamed aside, keeping the
   evidence — rather than left in place: a corrupt entry left on disk would
   make every warm run re-miss the same cell and re-race the writer
   forever. Racing loaders may both see the corruption; the loser of the
   rename race just finds the file already gone. *)
let quarantine path =
  try Sys.rename path (path ^ quarantine_extension) with Sys_error _ -> ()

let load t ~key =
  let path = path t key in
  let decoded =
    if not (Sys.file_exists path) then `Miss
    else
      match decode (read_file path) with
      | Ok r -> `Hit r
      | Error _ ->
        quarantine path;
        `Corrupt
      | exception Sys_error _ -> `Miss
  in
  Mutex.protect t.mutex (fun () ->
      match decoded with
      | `Hit _ -> t.hits <- t.hits + 1
      | `Miss -> t.misses <- t.misses + 1
      | `Corrupt ->
        (* A corrupt entry still has to be recomputed, so it is a miss as
           well as a quarantine event: hits + misses always equals lookups. *)
        t.misses <- t.misses + 1;
        t.corrupt <- t.corrupt + 1);
  match decoded with `Hit r -> Some r | `Miss | `Corrupt -> None

(* Within a process, {!Sweep}'s single-flight lookups save each key once,
   so concurrent writers of one key can only be separate processes. They
   compute the same deterministic payload, so the worst race is writing
   identical bytes; the pid in the tmp name keeps their tmp files apart,
   and the tmp-file + rename keeps readers from ever seeing a partial
   file. *)
let tmp_counter = Atomic.make 0

let save t ~key result =
  let path = path t key in
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d.%d" path (Unix.getpid ())
      (Domain.self () :> int)
      (Atomic.fetch_and_add tmp_counter 1)
  in
  let oc = open_out_bin tmp in
  (try
     output_string oc (frame (Result.to_string result));
     close_out oc;
     Sys.rename tmp path
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Mutex.protect t.mutex (fun () -> t.stores <- t.stores + 1)

let hits t = Mutex.protect t.mutex (fun () -> t.hits)
let misses t = Mutex.protect t.mutex (fun () -> t.misses)
let stores t = Mutex.protect t.mutex (fun () -> t.stores)
let corrupt t = Mutex.protect t.mutex (fun () -> t.corrupt)

let files_with_suffix t suffix =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter (fun n -> Filename.check_suffix n suffix)
    |> List.sort String.compare

let entries t = files_with_suffix t extension
let quarantined t = files_with_suffix t quarantine_extension

let size_bytes t =
  List.fold_left
    (fun acc name ->
      let path = Filename.concat t.dir name in
      match (open_in_bin path : in_channel) with
      | exception Sys_error _ -> acc
      | ic ->
        let n = in_channel_length ic in
        close_in_noerr ic;
        acc + n)
    0 (entries t)

let clear t =
  let live = entries t in
  List.iter
    (fun name ->
      try Sys.remove (Filename.concat t.dir name) with Sys_error _ -> ())
    (live @ quarantined t);
  List.length live

let verify t =
  let ok = ref 0 and bad = ref [] in
  List.iter
    (fun name ->
      let path = Filename.concat t.dir name in
      match decode (read_file path) with
      | Ok _ -> incr ok
      | Error msg -> bad := (name, msg) :: !bad
      | exception Sys_error msg -> bad := (name, msg) :: !bad)
    (entries t);
  (!ok, List.rev !bad)
