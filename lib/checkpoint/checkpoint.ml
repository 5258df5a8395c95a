(* A checkpoint file is a short self-describing text header followed by
   a Marshal body.  The header lets [load] refuse a mismatched file —
   wrong format, wrong version, different parameters — with a clear
   message *before* it hands untrusted bytes to [Marshal.from_channel],
   which would otherwise fail with an unhelpful [Failure "input_value:
   ..."] (or worse, succeed and resume a subtly different run).

   Layout (all header lines LF-terminated, body starts right after):

     DHTLB-CKPT v2
     git_rev <rev>
     params_digest <40-hex sha1>
     tick <n>
     <Marshal.to_channel of Engine.progress>

   The body is marshaled with default flags: [Engine.progress] is plain
   data (no closures anywhere — the strategy is re-supplied at resume),
   and default marshaling preserves the intra-value sharing the state
   relies on: each ring node is reachable from its neighbours' links,
   its tree parent and the hash index, and must stay one block, as must
   the vnode record it holds, which its machine's vnode list shares
   ([State.check_invariants] tests both by physical equality).  The
   ring's links are cyclic, which default marshaling also handles.

   Version history: v1 held the persistent ring map and boxed PRNG
   words; v2 holds the mutable linked ring and the PRNG's 32-byte state
   buffer, so a v1 body no longer unmarshals into this build's types
   and is refused on its header. *)

let magic = "DHTLB-CKPT"
let format_version = 2

let current_git_rev () =
  match Sys.getenv_opt "DHTLB_GIT_REV" with
  | Some r when r <> "" -> r
  | Some _ | None -> "unknown"

(* The digest covers the whole parameter record, byte for byte, via its
   marshaled form — [Params.pp] elides fields, so pretty-printing is not
   a faithful identity.  Two Params.t values digest equal iff a resumed
   run and a fresh run would be configured identically. *)
let digest_of_params (params : Params.t) =
  Sha1.digest_hex (Marshal.to_string params [])

type header = {
  version : int;
  git_rev : string;
  params_digest : string;
  tick : int;
}

let save ~path (params : Params.t) (p : Engine.progress) =
  Atomic_write.with_channel ~fsync:true path (fun oc ->
      Printf.fprintf oc "%s v%d\n" magic format_version;
      Printf.fprintf oc "git_rev %s\n" (current_git_rev ());
      Printf.fprintf oc "params_digest %s\n" (digest_of_params params);
      Printf.fprintf oc "tick %d\n" p.Engine.p_state.State.tick;
      Marshal.to_channel oc p [])

(* Header parsing: each line is "<name> <value>".  Errors name the file
   and the offending line so a refusal is actionable. *)
let field ic ~path ~name =
  match input_line ic with
  | exception End_of_file ->
    Error (Printf.sprintf "%s: truncated checkpoint header (missing %s)" path name)
  | line -> (
    let prefix = name ^ " " in
    let pl = String.length prefix in
    if String.length line > pl && String.equal (String.sub line 0 pl) prefix
    then Ok (String.sub line pl (String.length line - pl))
    else
      Error
        (Printf.sprintf "%s: malformed checkpoint header: expected \"%s ...\", got %S"
           path name line))

let load ~path (params : Params.t) =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let ( let* ) = Result.bind in
        let* first =
          match input_line ic with
          | exception End_of_file ->
            Error (Printf.sprintf "%s: empty file is not a checkpoint" path)
          | l -> Ok l
        in
        let* () =
          if String.equal first (Printf.sprintf "%s v%d" magic format_version)
          then Ok ()
          else if
            String.length first >= String.length magic
            && String.equal (String.sub first 0 (String.length magic)) magic
          then
            Error
              (Printf.sprintf
                 "%s: unsupported checkpoint version %S (this build reads \"%s v%d\")"
                 path first magic format_version)
          else
            Error
              (Printf.sprintf "%s: not a %s checkpoint (first line %S)" path magic
                 first)
        in
        let* git_rev = field ic ~path ~name:"git_rev" in
        let* params_digest = field ic ~path ~name:"params_digest" in
        let* tick_s = field ic ~path ~name:"tick" in
        let* tick =
          match int_of_string_opt tick_s with
          | Some t when t >= 0 -> Ok t
          | Some _ | None ->
            Error (Printf.sprintf "%s: malformed checkpoint tick %S" path tick_s)
        in
        let current = digest_of_params params in
        let* () =
          if String.equal params_digest current then Ok ()
          else
            Error
              (Printf.sprintf
                 "%s: parameter mismatch: checkpoint was taken under different \
                  parameters (file digest %s, current %s) — resume with the \
                  original configuration, or start a fresh run"
                 path params_digest current)
        in
        let* (p : Engine.progress) =
          match Marshal.from_channel ic with
          | p -> Ok p
          | exception (Failure _ | End_of_file) ->
            Error (Printf.sprintf "%s: corrupt checkpoint body" path)
        in
        (* Belt and braces: the header tick is advisory (it lets tools
           inspect a checkpoint without unmarshaling), but it must agree
           with the state it fronts. *)
        let* () =
          if p.Engine.p_state.State.tick = tick then Ok ()
          else
            Error
              (Printf.sprintf
                 "%s: checkpoint header tick %d disagrees with state tick %d"
                 path tick p.Engine.p_state.State.tick)
        in
        Ok (p, { version = format_version; git_rev; params_digest; tick }))
