module J = San_util.Json
module Trace = San_obs.Trace

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write ~path ~note ?epoch () =
  let records = Trace.records San_obs.Obs.tracer in
  let snap = Why.capture () in
  let entries = Why.tail snap ~n:512 in
  let header =
    J.Obj
      ([
         ("rec", J.Str "flight");
         ("version", J.int 1);
         ("note", J.Str note);
       ]
      @ (match epoch with None -> [] | Some e -> [ ("epoch", J.int e) ])
      @ [
          ("events", J.int (List.length records));
          ("ledger", J.int (List.length entries));
        ])
  in
  let tmp = path ^ ".tmp" in
  try
    mkdir_p (Filename.dirname path);
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        let line j =
          output_string oc (J.to_string ~pretty:false j);
          output_char oc '\n'
        in
        line header;
        List.iter
          (fun r ->
            line
              (J.Obj
                 [ ("rec", J.Str "trace"); ("record", Trace.record_to_json r) ]))
          records;
        List.iter
          (fun (did, e) ->
            line
              (J.Obj
                 [ ("rec", J.Str "why"); ("entry", Why.entry_to_json did e) ]))
          entries;
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc));
    Sys.rename tmp path;
    Ok ()
  with Sys_error e | Unix.Unix_error (_, e, _) -> Error e
