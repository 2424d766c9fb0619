module P = Acq_core.Planner

(* ------------------------------------------------------------------ *)
(* Requests *)

type planner = Portfolio | Fixed of P.algorithm

type opts = {
  planner : planner option;
  model : Acq_prob.Backend.spec option;
}

let no_opts = { planner = None; model = None }

type request =
  | Hello of string
  | Plan of opts * string
  | Run of opts * string
  | Subscribe of opts * string
  | Unsubscribe of int
  | Stats
  | Metrics
  | Ping
  | Quit

(* Error codes, HTTP-flavored so clients can branch coarsely:
   400 bad request line / unknown verb     401 HELLO required
   404 unknown subscription                409 protocol misuse
   413 request line too long               422 query did not compile
   429 admission or quota rejected         503 draining / overloaded *)

let err code msg = Error (code, msg)

let is_space c = c = ' ' || c = '\t'

let split_words s =
  let n = String.length s in
  let words = ref [] in
  let i = ref 0 in
  while !i < n do
    while !i < n && is_space s.[!i] do
      incr i
    done;
    if !i < n then begin
      let start = !i in
      while !i < n && not (is_space s.[!i]) do
        incr i
      done;
      words := (start, String.sub s start (!i - start)) :: !words
    end
  done;
  List.rev !words

let parse_planner = function
  | "portfolio" -> Ok Portfolio
  | "naive" -> Ok (Fixed P.Naive)
  | "corrseq" -> Ok (Fixed P.Corr_seq)
  | "heuristic" -> Ok (Fixed P.Heuristic)
  | "exhaustive" -> Ok (Fixed P.Exhaustive)
  | "pac" -> Ok (Fixed P.Pac)
  | s -> Error ("unknown algo: " ^ s)

let parse_opt opts (k, v) =
  match k with
  | "algo" -> (
      match parse_planner v with
      | Ok p -> Ok { opts with planner = Some p }
      | Error e -> Error e)
  | "model" -> (
      match Acq_prob.Backend.spec_of_string v with
      | Ok m -> Ok { opts with model = Some m }
      | Error e -> Error (Acq_prob.Backend.spec_error_to_string e))
  | _ -> Error ("unknown option: " ^ k)

(* [PLAN [k=v ...] SELECT ...]: option tokens run until the first
   token whose lowercase form is "select"; the SQL is the raw tail of
   the line from that token on (original spacing preserved). *)
let parse_sql_tail line words =
  let rec go opts = function
    | [] -> err 422 "missing SELECT: the query must start with SELECT"
    | (off, w) :: rest -> (
        if String.lowercase_ascii w = "select" then
          Ok (opts, String.sub line off (String.length line - off))
        else
          match String.index_opt w '=' with
          | Some i when i > 0 ->
              let k = String.sub w 0 i
              and v = String.sub w (i + 1) (String.length w - i - 1) in
              (match parse_opt opts (String.lowercase_ascii k, v) with
              | Ok opts -> go opts rest
              | Error e -> err 400 e)
          | _ -> err 400 ("expected k=v option or SELECT, found: " ^ w))
  in
  go no_opts words

let parse_request line =
  match split_words line with
  | [] -> err 400 "empty request"
  | (_, verb) :: rest -> (
      let with_sql mk =
        match parse_sql_tail line rest with
        | Ok (opts, sql) -> Ok (mk opts sql)
        | Error e -> Error e
      in
      match String.uppercase_ascii verb with
      | "HELLO" -> (
          match rest with
          | [ (_, tenant) ] -> Ok (Hello tenant)
          | _ -> err 400 "usage: HELLO <tenant>")
      | "PLAN" -> with_sql (fun o s -> Plan (o, s))
      | "RUN" -> with_sql (fun o s -> Run (o, s))
      | "SUBSCRIBE" -> with_sql (fun o s -> Subscribe (o, s))
      | "UNSUBSCRIBE" -> (
          match rest with
          | [ (_, id) ] -> (
              match int_of_string_opt id with
              | Some i -> Ok (Unsubscribe i)
              | None -> err 400 ("bad subscription id: " ^ id))
          | _ -> err 400 "usage: UNSUBSCRIBE <id>")
      | "STATS" -> Ok Stats
      | "METRICS" -> Ok Metrics
      | "PING" -> Ok Ping
      | "QUIT" | "BYE" -> Ok Quit
      | v -> err 400 ("unknown verb: " ^ v))

(* ------------------------------------------------------------------ *)
(* Response frames: one header line, then a length-prefixed payload.
   The header carries the byte count so payloads may contain anything
   (newlines, tables, Prometheus dumps) without escaping. *)

type frame =
  | Reply of string
  | Failure of int * string
  | Event of int * string
  | Overload of string
  | Bye of string

(* "EVENT <sub> <len>\n", written without Printf: the server frames
   every subscription event with it. Blitting into one sized buffer
   frames an event in ~110 ns against ~150 ns for a String.concat of
   the five pieces (EXPERIMENTS.md). *)
let event_header sub len =
  let sub = string_of_int sub and len = string_of_int len in
  let ns = String.length sub and nl = String.length len in
  let b = Bytes.create (6 + ns + 1 + nl + 1) in
  Bytes.blit_string "EVENT " 0 b 0 6;
  Bytes.blit_string sub 0 b 6 ns;
  Bytes.set b (6 + ns) ' ';
  Bytes.blit_string len 0 b (7 + ns) nl;
  Bytes.set b (7 + ns + nl) '\n';
  Bytes.unsafe_to_string b

let render = function
  | Reply p -> Printf.sprintf "OK %d\n%s" (String.length p) p
  | Failure (code, p) -> Printf.sprintf "ERR %d %d\n%s" code (String.length p) p
  | Event (sub, p) -> event_header sub (String.length p) ^ p
  | Overload p -> Printf.sprintf "OVERLOAD %d\n%s" (String.length p) p
  | Bye p -> Printf.sprintf "BYE %d\n%s" (String.length p) p

let frame_kind = function
  | Reply _ -> "ok"
  | Failure _ -> "err"
  | Event _ -> "event"
  | Overload _ -> "overload"
  | Bye _ -> "bye"

(* ------------------------------------------------------------------ *)
(* Incremental decoding, shared by the server (request lines) and
   clients (frames). The buffer compacts lazily: consumed bytes are
   dropped only once they exceed half the buffer. *)

module Reader = struct
  type t = { mutable buf : Bytes.t; mutable start : int; mutable len : int }

  let create () = { buf = Bytes.create 4096; start = 0; len = 0 }

  let compact t =
    if t.start > 0 then begin
      Bytes.blit t.buf t.start t.buf 0 t.len;
      t.start <- 0
    end

  let feed t src off n =
    if t.start + t.len + n > Bytes.length t.buf then begin
      compact t;
      if t.len + n > Bytes.length t.buf then begin
        let cap = ref (Bytes.length t.buf) in
        while t.len + n > !cap do
          cap := !cap * 2
        done;
        let bigger = Bytes.create !cap in
        Bytes.blit t.buf 0 bigger 0 t.len;
        t.buf <- bigger
      end
    end;
    Bytes.blit src off t.buf (t.start + t.len) n;
    t.len <- t.len + n

  let feed_string t s = feed t (Bytes.unsafe_of_string s) 0 (String.length s)

  let buffered t = t.len

  let find_newline t =
    let rec go i =
      if i >= t.len then None
      else if Bytes.get t.buf (t.start + i) = '\n' then Some i
      else go (i + 1)
    in
    go 0

  let consume t n =
    t.start <- t.start + n;
    t.len <- t.len - n;
    if t.len = 0 then t.start <- 0

  let take t n =
    let s = Bytes.sub_string t.buf t.start n in
    consume t n;
    s

  (* One request line, without its terminator; tolerates CRLF.
     [`Too_long] fires when a line exceeds [max] bytes — the caller
     replies 413 and [discard_line] resynchronizes at the next
     newline. *)
  let next_line ?(max = max_int) t =
    match find_newline t with
    | Some i when i <= max ->
        let line = take t (i + 1) in
        let line = String.sub line 0 i in
        let line =
          if line <> "" && line.[String.length line - 1] = '\r' then
            String.sub line 0 (String.length line - 1)
          else line
        in
        `Line line
    | Some _ -> `Too_long
    | None -> if t.len > max then `Too_long else `More

  let discard_line t =
    match find_newline t with
    | Some i ->
        consume t (i + 1);
        true
    | None ->
        consume t t.len;
        false

  (* One frame: header line then exactly [len] payload bytes. *)
  let rec next_frame t =
    match find_newline t with
    | None -> `More
    | Some i -> (
        let header = Bytes.sub_string t.buf t.start i in
        let fail msg = `Bad (Printf.sprintf "%s: %S" msg header) in
        match split_words header with
        | [ (_, "OK"); (_, n) ] -> payload t i n (fun p -> Reply p) fail
        | [ (_, "ERR"); (_, c); (_, n) ] -> (
            match int_of_string_opt c with
            | Some code -> payload t i n (fun p -> Failure (code, p)) fail
            | None -> fail "bad ERR code")
        | [ (_, "EVENT"); (_, s); (_, n) ] -> (
            match int_of_string_opt s with
            | Some sub -> payload t i n (fun p -> Event (sub, p)) fail
            | None -> fail "bad EVENT id")
        | [ (_, "OVERLOAD"); (_, n) ] ->
            payload t i n (fun p -> Overload p) fail
        | [ (_, "BYE"); (_, n) ] -> payload t i n (fun p -> Bye p) fail
        | _ -> fail "unrecognized frame header")

  and payload t header_len n mk fail =
    match int_of_string_opt n with
    | None -> fail "bad payload length"
    | Some len when len < 0 -> fail "negative payload length"
    | Some len ->
        if t.len < header_len + 1 + len then `More
        else begin
          consume t (header_len + 1);
          `Frame (mk (take t len))
        end
end
