module J = Ditto_util.Jsonx

(* Jaeger's JSON API writes span and trace ids as hex strings. *)
let id_of_hex s =
  let is_hex c =
    (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
  in
  if s = "" || String.length s > 16 || not (String.for_all is_hex s) then
    raise (J.Parse_error (Printf.sprintf "bad span id %S" s));
  (* An OCaml int holds 63 bits, so half of all 64-bit ids do not fit. *)
  match int_of_string_opt ("0x" ^ s) with
  | Some id -> id
  | None -> raise (J.Parse_error (Printf.sprintf "span id %S exceeds 63 bits" s))

let tag_int tags key =
  let rec go = function
    | [] -> 0
    | tag :: rest ->
        if (try J.to_str (J.member "key" tag) = key with J.Parse_error _ -> false) then
          match J.member "value" tag with
          | J.Num n -> int_of_float n
          | J.Str s -> ( match int_of_string_opt s with Some i -> i | None -> 0)
          | _ -> 0
        else go rest
  in
  go tags

exception Ingest_error of { span_id : string; reason : string }

let ingest_error span_id fmt =
  Printf.ksprintf (fun reason -> raise (Ingest_error { span_id; reason })) fmt

let span_of_json json =
  let sid_hex = J.to_str (J.member "spanID" json) in
  let span_id = id_of_hex sid_hex in
  let parent_span =
    (* First CHILD_OF reference wins; spans without one are roots. A
       reference that names the span itself or carries a non-hex id is
       content corruption, not a shape error, so it names the span. *)
    let refs = match J.member "references" json with J.List l -> l | _ -> [] in
    List.find_map
      (fun r ->
        match J.member "refType" r with
        | J.Str "CHILD_OF" -> (
            match id_of_hex (J.to_str (J.member "spanID" r)) with
            | p -> Some p
            | exception J.Parse_error msg ->
                ingest_error sid_hex "malformed parent reference: %s" msg)
        | _ -> None)
      refs
  in
  if parent_span = Some span_id then ingest_error sid_hex "span is its own parent";
  (match J.member "duration" json with
  | J.Num d when d < 0.0 -> ingest_error sid_hex "negative duration %g" d
  | _ -> ());
  let tags = match J.member "tags" json with J.List l -> l | _ -> [] in
  {
    Span.trace_id = id_of_hex (J.to_str (J.member "traceID" json));
    span_id;
    parent_span;
    service = J.to_str (J.member "operationName" json);
    req_bytes = tag_int tags "req_bytes";
    resp_bytes = tag_int tags "resp_bytes";
  }

(* Reject parent cycles before anything downstream (Dag.of_spans ancestry
   walks) can loop on them. The walk is iterative and bounded by the
   number of parented spans, so a cycle of any length is detected without
   recursion depth entering the picture. *)
let check_acyclic spans =
  let parent = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.t) ->
      Option.iter (fun p -> Hashtbl.replace parent s.Span.span_id p) s.Span.parent_span)
    spans;
  let bound = Hashtbl.length parent + 1 in
  List.iter
    (fun (s : Span.t) ->
      let rec walk id steps =
        if steps > bound then
          ingest_error (Printf.sprintf "%x" s.Span.span_id) "cyclic parent references"
        else
          match Hashtbl.find_opt parent id with
          | Some p -> walk p (steps + 1)
          | None -> ()
      in
      walk s.Span.span_id 0)
    spans;
  spans

(* {1 Writer}

   Emits the same subset of the Jaeger JSON API the reader above consumes:
   hex ids, CHILD_OF references, operationName = service, req/resp byte
   tags. [of_string (to_string spans)] recovers the spans exactly (modulo
   list order within a trace), which is what the topology round-trip
   (generate -> export -> recover DAG) leans on. *)

let hex_id id = Printf.sprintf "%x" id

let span_to_json (s : Span.t) =
  let tag key value =
    J.Obj [ ("key", J.Str key); ("type", J.Str "int64"); ("value", J.int value) ]
  in
  let references =
    match s.Span.parent_span with
    | None -> []
    | Some p ->
        [
          J.Obj
            [
              ("refType", J.Str "CHILD_OF");
              ("traceID", J.Str (hex_id s.Span.trace_id));
              ("spanID", J.Str (hex_id p));
            ];
        ]
  in
  J.Obj
    [
      ("traceID", J.Str (hex_id s.Span.trace_id));
      ("spanID", J.Str (hex_id s.Span.span_id));
      ("operationName", J.Str s.Span.service);
      ("references", J.List references);
      ("startTime", J.int 0);
      ("duration", J.int 1);
      ("tags", J.List [ tag "req_bytes" s.Span.req_bytes; tag "resp_bytes" s.Span.resp_bytes ]);
    ]

let to_json spans =
  (* Group spans into traces, preserving first-seen trace order and span
     order within each trace. *)
  let order = ref [] in
  let by_trace : (int, Span.t list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : Span.t) ->
      match Hashtbl.find_opt by_trace s.Span.trace_id with
      | Some cell -> cell := s :: !cell
      | None ->
          Hashtbl.add by_trace s.Span.trace_id (ref [ s ]);
          order := s.Span.trace_id :: !order)
    spans;
  let traces =
    List.rev_map
      (fun tid ->
        let spans = List.rev !(Hashtbl.find by_trace tid) in
        J.Obj
          [
            ("traceID", J.Str (hex_id tid));
            ("spans", J.List (List.map span_to_json spans));
          ])
      !order
  in
  J.Obj [ ("data", J.List traces) ]

let to_string ?pretty spans = J.to_string ?pretty (to_json spans)

let of_json json =
  match J.member "data" json with
  | J.List traces ->
      List.concat_map
        (fun trace ->
          match J.member "spans" trace with
          | J.List spans -> List.map span_of_json spans
          | _ -> raise (J.Parse_error "trace entry without spans"))
        traces
      |> check_acyclic
  | _ -> raise (J.Parse_error "expected {\"data\": [...]}")

let of_string s = of_json (J.of_string s)
