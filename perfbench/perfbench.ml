(* End-to-end benchmark of tpdf_serve over a real Unix socket.

   One run: spawn the daemon (as `tpdf_tool serve` is run, TPDF_DOMAINS
   unset), set up its fleet a few times and keep the last, drive it
   closed-loop for --seconds from one connection with the seeded request
   stream of the workload, check every response against the generator's
   own expectations, then check the daemon's firing counter, (persisted
   workloads) a restart on the same state directory, and an in-process
   replay of the same request lines through [Daemon.handle], which must
   answer byte for byte as the socket did.  With --trace 1 the replay
   records spans around each layer's public functions and the run prints
   per-layer metrics; otherwise it prints the end-to-end ones.  The last
   stdout line is the JSON result. *)

module J = Tpdf_serve.Json
module D = Tpdf_serve.Daemon

let now () = Unix.gettimeofday ()
let fail fmt = Printf.ksprintf failwith fmt

(* ---------- statistics ---------- *)

let quantile xs q =
  match xs with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      let j = min (i + 1) (Array.length a - 1) in
      a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let sum = List.fold_left ( +. ) 0.0

let mean xs =
  match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

let median xs = quantile xs 0.5

(* ---------- workloads ---------- *)

type slot =
  | Adv of int * int  (** advance a tenant by lo..hi iterations *)
  | Reconf  (** reconfigure a tenant to a fresh valuation *)
  | Query
  | Churn  (** remove a tenant, submit a fresh one in its place *)
  | Bad  (** submit a known-inadmissible graph *)

type workload = {
  name : string;
  persist : bool;
  fleet : int;
  max_resident : int;
  families : (Gen.rng -> Gen.family) array;
      (** the families of admitted tenants, drawn uniformly *)
  cap : int;  (** per-iteration cost bound of generated tenants *)
  dealt : int list option;
      (** every valuation deals these values to the parameters, so the
          fleet's cost does not depend on the seed *)
  skew : bool;  (** pick tenants with a seeded skew instead of uniformly *)
  round : slot list;
}

let workloads =
  [
    {
      name = "advance-mem";
      persist = false;
      fleet = 16;
      max_resident = 0;
      families = [| (fun _ -> Gen.Fig2 6) |];
      cap = 400;
      dealt = Some [ 1; 2; 3; 3; 4; 5 ];
      skew = false;
      round =
        [
          Adv (8, 8); Adv (8, 8); Adv (8, 8); Adv (8, 8); Adv (8, 8); Adv (8, 8);
          Churn; Adv (8, 8); Adv (8, 8); Adv (8, 8); Adv (8, 8); Adv (8, 8);
          Adv (8, 8); Reconf; Query; Bad;
        ];
    };
    {
      name = "admit-churn";
      persist = false;
      fleet = 24;
      max_resident = 0;
      families =
        [|
          (fun r -> Gen.Fig2 (Gen.range r 2 3));
          (fun r -> Gen.Sym (Gen.range r 8 24));
          (fun r ->
            let k = Gen.range r 4 24 in
            Gen.Ring (k, Gen.range r 1 k));
        |];
      cap = 250;
      dealt = None;
      skew = false;
      round =
        [
          Churn; Reconf; Adv (1, 1); Churn; Bad; Reconf; Adv (1, 1); Query;
          Churn; Adv (1, 1);
        ];
    };
    {
      name = "persist-evict";
      persist = true;
      fleet = 96;
      max_resident = 16;
      families =
        [|
          (fun _ -> Gen.Fig2 1);
          (fun r -> Gen.Sym (Gen.range r 3 6));
          (fun r ->
            let k = Gen.range r 3 6 in
            Gen.Ring (k, Gen.range r 1 k));
        |];
      cap = 60;
      dealt = None;
      skew = true;
      round =
        [
          Adv (1, 2); Adv (1, 2); Adv (1, 2); Churn; Adv (1, 2); Adv (1, 2);
          Reconf; Adv (1, 2); Adv (1, 2); Query; Adv (1, 2); Bad;
        ];
    };
  ]

(* ---------- the model: request stream and expectations ---------- *)

type live = {
  tname : string;
  tenant : Gen.tenant;
  mutable cost : int;
  mutable period_ms : float;
  mutable done_ : int;
}

type request = {
  kind : string;
      (** submit, submit_bad, advance, reconfigure, query, remove, or an
          end-of-run check *)
  line : string;
  check : J.t -> (unit, string) result;
  iterations : int;  (** advance only *)
  cost : int;  (** advance only: the tenant's cost while it ran *)
}

type model = {
  w : workload;
  r : Gen.rng;
  mutable fleet : live array;  (** set up by [setup_requests] *)
  mutable seq : int;  (** tenant names *)
  mutable id : int;  (** request ids *)
  mutable firings : int;  (** Σ cost × iterations over advances sent *)
  mutable bad : int;
}

let field k j = Option.value (J.member k j) ~default:J.Null

let expect_fields fields resp =
  match
    List.find_opt
      (fun (k, v) ->
        let got = field k resp in
        match (v, got) with
        | J.Float e, (J.Float _ | J.Int _) ->
            let g = match got with J.Float g -> g | J.Int g -> float g | _ -> 0. in
            Float.abs (g -. e) > 1e-6 *. Float.max 1.0 (Float.abs e)
        | _ -> got <> v)
      fields
  with
  | None -> Ok ()
  | Some (k, v) ->
      Error
        (Printf.sprintf "%s: expected %s in %s" k (J.to_string v)
           (J.to_string resp))

let expect_reject prefix resp =
  let err = field "error" resp in
  match (field "ok" resp, field "code" err, field "msg" err) with
  | J.Bool false, J.String "inadmissible", J.String msg
    when String.starts_with ~prefix msg ->
      Ok ()
  | _ ->
      Error
        (Printf.sprintf "expected inadmissible (%s...) in %s" prefix
           (J.to_string resp))

let next_id m =
  m.id <- m.id + 1;
  J.Int m.id

let params_json v = J.Obj (List.map (fun (p, x) -> (p, J.Int x)) v)

let req ?(iterations = 0) ?(cost = 0) kind fields check =
  { kind; line = J.to_string (J.Obj fields); check; iterations; cost }

let submit m tname (t : Gen.tenant) =
  let id = next_id m in
  let fields =
    [
      ("op", J.String "submit"); ("id", id); ("name", J.String tname);
      ("graph", J.String t.Gen.graph.Gen.text);
      ("params", params_json t.Gen.valuation);
    ]
  in
  match Gen.expect t with
  | Gen.Reject prefix -> (req "submit_bad" fields (expect_reject prefix), None)
  | Gen.Admit { cost; period_ms } ->
      let l = { tname; tenant = t; cost; period_ms; done_ = 0 } in
      ( req "submit" fields
          (expect_fields
             [
               ("id", id); ("ok", J.Bool true); ("tenant", J.String tname);
               ("status", J.String "running"); ("cost", J.Int cost);
               ("period_ms", J.Float period_ms);
             ]),
        Some l )

let cost_of t = match Gen.expect t with Gen.Admit { cost; _ } -> cost | Gen.Reject _ -> 0

(* Tenant [slot] of the initial fleet cycles through the families and is
   the q-th cost quantile of 16 draws, q spread evenly over the fleet, so
   the set-up's admission work hardly depends on the seed.  Churned-in
   tenants ([slot] absent) are single draws of a random family. *)
let draw m slot =
  let fams = m.w.families in
  match slot with
  | None -> Gen.tenant m.r (fams.(Gen.int m.r (Array.length fams)) m.r) ~cap:m.w.cap
  | Some i ->
      let n = Array.length fams in
      let per = max 1 (m.w.fleet / n) in
      let q = (float_of_int (i / n) +. 0.5) /. float_of_int per in
      let cands =
        List.init 16 (fun _ -> Gen.tenant m.r (fams.(i mod n) m.r) ~cap:m.w.cap)
        |> List.map (fun t -> (cost_of t, t))
        |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
      in
      snd (List.nth cands (min 15 (int_of_float (q *. 16.0))))

let fresh_tenant ?slot m =
  m.seq <- m.seq + 1;
  let t = draw m slot in
  Option.iter (fun vs -> t.Gen.valuation <- Gen.dealt m.r t vs) m.w.dealt;
  match submit m (Printf.sprintf "t%d" m.seq) t with
  | rq, Some l -> (rq, l)
  | _, None -> assert false

let advance m l n =
  let id = next_id m in
  l.done_ <- l.done_ + n;
  m.firings <- m.firings + (l.cost * n);
  req "advance" ~iterations:n ~cost:l.cost
    [
      ("op", J.String "advance"); ("id", id); ("name", J.String l.tname);
      ("iterations", J.Int n);
    ]
    (expect_fields
       [
         ("id", id); ("ok", J.Bool true); ("tenant", J.String l.tname);
         ("done", J.Int l.done_); ("status", J.String "running");
       ])

(** The initial fleet: every tenant submitted, then warmed by one
    iteration. *)
let setup_requests m =
  let subs = List.init m.w.fleet (fun i -> fresh_tenant ~slot:i m) in
  m.fleet <- Array.of_list (List.map snd subs);
  List.map fst subs @ Array.to_list (Array.map (fun l -> advance m l 1) m.fleet)

let create_model w seed =
  {
    w;
    r = Gen.rng seed;
    fleet = [||];
    seq = 0;
    id = 0;
    firings = 0;
    bad = 0;
  }

let pick_slot m =
  let n = Array.length m.fleet in
  if m.w.skew then
    (* squared uniform: the hottest fifth of the fleet takes ~45% *)
    let u = float_of_int (Gen.int m.r 1_000_000) /. 1e6 in
    min (n - 1) (int_of_float (u *. u *. float_of_int n))
  else Gen.int m.r n

let round m =
  List.concat_map
    (function
      | Adv (lo, hi) ->
          [ advance m m.fleet.(pick_slot m) (Gen.range m.r lo hi) ]
      | Query ->
          let l = m.fleet.(pick_slot m) in
          let id = next_id m in
          [
            req "query"
              [ ("op", J.String "query"); ("id", id); ("name", J.String l.tname) ]
              (expect_fields
                 [
                   ("id", id); ("ok", J.Bool true); ("tenant", J.String l.tname);
                   ("status", J.String "running"); ("done", J.Int l.done_);
                   ("cost", J.Int l.cost); ("period_ms", J.Float l.period_ms);
                 ]);
          ]
      | Reconf ->
          let l = m.fleet.(pick_slot m) in
          let t = l.tenant in
          (match m.w.dealt with
          | Some vs -> t.Gen.valuation <- Gen.dealt m.r t vs
          | None -> (
              match Gen.new_valuation m.r t ~cap:m.w.cap with
              | Some v -> t.Gen.valuation <- v
              | None -> ()));
          (match Gen.expect t with
          | Gen.Admit { cost; period_ms } ->
              l.cost <- cost;
              l.period_ms <- period_ms
          | Gen.Reject _ -> assert false);
          let id = next_id m in
          [
            req "reconfigure"
              [
                ("op", J.String "reconfigure"); ("id", id);
                ("name", J.String l.tname);
                ("params", params_json t.Gen.valuation);
              ]
              (expect_fields
                 [
                   ("id", id); ("ok", J.Bool true); ("tenant", J.String l.tname);
                   ("status", J.String "running"); ("cost", J.Int l.cost);
                   ("period_ms", J.Float l.period_ms);
                 ]);
          ]
      | Churn ->
          let i = pick_slot m in
          let old = m.fleet.(i) in
          let id = next_id m in
          let rm =
            req "remove"
              [ ("op", J.String "remove"); ("id", id); ("name", J.String old.tname) ]
              (expect_fields
                 [
                   ("id", id); ("ok", J.Bool true);
                   ("tenant", J.String old.tname); ("removed", J.Bool true);
                 ])
          in
          let sub, l = fresh_tenant m in
          m.fleet.(i) <- l;
          [ rm; sub ]
      | Bad ->
          m.bad <- m.bad + 1;
          let family =
            if m.bad mod 2 = 0 then Gen.Inconsistent (Gen.range m.r 3 8)
            else Gen.Unsafe (Gen.range m.r 1 6)
          in
          let t = Gen.tenant m.r family ~cap:m.w.cap in
          [ fst (submit m (Printf.sprintf "bad%d" m.bad) t) ])
    m.w.round

(* ---------- the daemon process ---------- *)

type daemon = { pid : int }

let live_pids = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_pids)

let spawn exe args ~log =
  let env =
    Array.of_list
      (List.filter
         (fun s -> not (String.starts_with ~prefix:"TPDF_DOMAINS=" s))
         (Array.to_list (Unix.environment ())))
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) env null out out
  in
  Unix.close out;
  Unix.close null;
  live_pids := pid :: !live_pids;
  { pid }

let reap d =
  ignore (Unix.waitpid [] d.pid);
  live_pids := List.filter (( <> ) d.pid) !live_pids

(* Readiness poll at 0.5 ms: a coarse retry sleep would quantise
   setup_s. *)
let connect_poll d sock =
  let deadline = now () +. 30.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ -> ()
        | _ ->
            live_pids := List.filter (( <> ) d.pid) !live_pids;
            fail "daemon exited before serving");
        if now () > deadline then fail "daemon not ready after 30 s";
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

type conn = { fd : Unix.file_descr; buf : Bytes.t; mutable lo : int; mutable hi : int }

let conn fd = { fd; buf = Bytes.create 65536; lo = 0; hi = 0 }

let send c line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  go 0

let recv c =
  let b = Buffer.create 256 in
  let rec go () =
    match Bytes.index_from_opt c.buf c.lo '\n' with
    | Some i when i < c.hi ->
        Buffer.add_subbytes b c.buf c.lo (i - c.lo);
        c.lo <- i + 1;
        Buffer.contents b
    | _ ->
        Buffer.add_subbytes b c.buf c.lo (c.hi - c.lo);
        c.lo <- 0;
        c.hi <- Unix.read c.fd c.buf 0 (Bytes.length c.buf);
        if c.hi = 0 then fail "daemon closed the connection";
        go ()
  in
  go ()

let read_proc path =
  (* /proc files report length 0: read to EOF *)
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      Buffer.contents b)

let proc_field pid file key =
  let text = read_proc (Printf.sprintf "/proc/%d/%s" pid file) in
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.sub l 0 i = key ->
          let v = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
          Some (float_of_string (List.hd (String.split_on_char ' ' v)))
      | _ -> None)
    (String.split_on_char '\n' text)
  |> Option.get

(* utime + stime, ms (USER_HZ = 100) *)
let cpu_ms pid =
  let s = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) *. 10.0

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* ---------- per-op accounting ---------- *)

type tally = { mutable attempted : int; mutable failed : int }

let tallies : (string, tally) Hashtbl.t = Hashtbl.create 8
let failures = ref []

let account kind ok why =
  let t =
    match Hashtbl.find_opt tallies kind with
    | Some t -> t
    | None ->
        let t = { attempted = 0; failed = 0 } in
        Hashtbl.replace tallies kind t;
        t
  in
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length !failures < 5 then failures := (kind ^ ": " ^ why) :: !failures
  end

(* One closed-loop request: write the line, read the response line. *)
let exchange c (rq : request) =
  let t0 = now () in
  let resp =
    match
      send c rq.line;
      recv c
    with
    | line -> Ok line
    | exception e -> Error (Printexc.to_string e)
  in
  let dt = now () -. t0 in
  (match resp with
  | Error e -> account rq.kind false ("transport: " ^ e)
  | Ok line -> (
      match J.of_string line with
      | Error e -> account rq.kind false ("response parse: " ^ e)
      | Ok j -> (
          match rq.check j with
          | Ok () -> account rq.kind true ""
          | Error e -> account rq.kind false e)));
  (dt, resp)

let simple c kind fields check =
  let rq = req kind fields check in
  match snd (exchange c rq) with Ok l -> J.of_string l |> Result.to_option | Error _ -> None

let shutdown c d =
  ignore
    (simple c "shutdown"
       [ ("op", J.String "shutdown") ]
       (expect_fields [ ("ok", J.Bool true) ]));
  Unix.close c.fd;
  reap d

(* ---------- the socket run ---------- *)

type op_sample = { rq : request; ms : float; resp : string }

type socket_run = {
  setup_s : float list;
  log : (string * string) list;  (** request/response lines to replay *)
  log_kinds : string list;
  measured : op_sample list;
  elapsed_s : float;
  cpu_ms : float;
  peak_rss_kib : float;
  wchar : float;
  syscw : float;
  end_checks : (string * bool) list;
}

type opts = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  exe : string;
  run_dir : string;
  setups : int;
}

let daemon_args o ~sock ~state =
  [ "serve"; sock ]
  @
  if o.workload.persist then
    [
      "--state-dir"; state; "--checkpoint-every"; "1"; "--max-resident";
      string_of_int o.workload.max_resident;
    ]
  else []

let socket_run o =
  let sock = Filename.concat o.run_dir "d.sock" in
  let state = Filename.concat o.run_dir "state" in
  let daemon_log = Filename.concat o.run_dir "daemon.log" in
  let setup () =
    rm_rf sock;
    rm_rf state;
    let m = create_model o.workload o.seed in
    let t0 = now () in
    let d = spawn o.exe (daemon_args o ~sock ~state) ~log:daemon_log in
    let c = conn (connect_poll d sock) in
    let log =
      List.map
        (fun rq ->
          match exchange c rq with
          | _, Ok resp -> (rq.kind, rq.line, resp)
          | _, Error e -> fail "setup: %s" e)
        (setup_requests m)
    in
    (now () -. t0, m, d, c, log)
  in
  let rec setups k acc =
    let s, m, d, c, log = setup () in
    if k > 1 then begin
      shutdown c d;
      setups (k - 1) (s :: acc)
    end
    else (List.rev (s :: acc), m, d, c, log)
  in
  let setup_s, m, d, c, setup_log = setups o.setups [] in
  let cpu0 = cpu_ms d.pid in
  let io0 k = proc_field d.pid "io" k in
  let w0 = io0 "wchar" and s0 = io0 "syscw" in
  let t0 = now () in
  let deadline = t0 +. o.seconds in
  let measured = ref [] in
  let rec loop () =
    List.iter
      (fun rq ->
        let ms, resp = exchange c rq in
        measured :=
          { rq; ms = ms *. 1000.0; resp = Result.value resp ~default:"" }
          :: !measured)
      (round m);
    if now () < deadline then loop ()
  in
  loop ();
  let elapsed_s = now () -. t0 in
  let cpu_ms = cpu_ms d.pid -. cpu0 in
  let wchar = io0 "wchar" -. w0 and syscw = io0 "syscw" -. s0 in
  let peak_rss_kib = proc_field d.pid "status" "VmHWM" in
  (* The daemon's own firing counter against Σ cost × iterations. *)
  let counter =
    match
      simple c "metrics"
        [ ("op", J.String "metrics") ]
        (expect_fields [ ("ok", J.Bool true) ])
    with
    | Some j -> (
        match field "openmetrics" j with
        | J.String text ->
            List.find_map
              (fun l ->
                match String.split_on_char ' ' l with
                | [ k; v ] when String.ends_with ~suffix:"serve_firings_total" k ->
                    int_of_string_opt v
                | _ -> None)
              (String.split_on_char '\n' text)
        | _ -> None)
    | None -> None
  in
  let firings_ok = counter = Some m.firings in
  if not firings_ok then
    failures :=
      Printf.sprintf "serve.firings %s <> tally %d"
        (match counter with Some n -> string_of_int n | None -> "missing")
        m.firings
      :: !failures;
  shutdown c d;
  (* Restart on the same state directory: every tenant comes back with
     its tally. *)
  let restart_ok =
    (not o.workload.persist)
    ||
    let d = spawn o.exe (daemon_args o ~sock ~state) ~log:daemon_log in
    let c = conn (connect_poll d sock) in
    let expected =
      List.sort compare
        (Array.to_list
           (Array.map
              (fun l ->
                J.Obj
                  [
                    ("name", J.String l.tname); ("done", J.Int l.done_);
                    ("cost", J.Int l.cost);
                  ])
              m.fleet))
    in
    let ok =
      match
        simple c "list"
          [ ("op", J.String "list") ]
          (expect_fields [ ("ok", J.Bool true) ])
      with
      | Some j -> (
          match field "tenants" j with
          | J.List ts ->
              let got =
                List.sort compare
                  (List.map
                     (fun t ->
                       J.Obj
                         [
                           ("name", field "name" t); ("done", field "done" t);
                           ("cost", field "cost" t);
                         ])
                     ts)
              in
              got = expected
          | _ -> false)
      | None -> false
    in
    if not ok then failures := "restart: fleet differs from the tally" :: !failures;
    shutdown c d;
    ok
  in
  {
    setup_s;
    log =
      List.map (fun (_, l, r) -> (l, r)) setup_log
      @ List.rev_map (fun s -> (s.rq.line, s.resp)) !measured;
    log_kinds =
      List.map (fun (k, _, _) -> k) setup_log
      @ List.rev_map (fun s -> s.rq.kind) !measured;
    measured = List.rev !measured;
    elapsed_s;
    cpu_ms;
    peak_rss_kib;
    wchar;
    syscw;
    end_checks = [ ("firings_counter", firings_ok); ("restart", restart_ok) ];
  }

(* ---------- output ---------- *)

let metric name unit v = (name, unit, v)

let end_to_end (s : socket_run) =
  let ms kind = List.filter_map (fun x -> if x.rq.kind = kind then Some x.ms else None) s.measured in
  let n = float_of_int (List.length s.measured) in
  let fired =
    List.fold_left (fun acc x -> acc + (x.rq.cost * x.rq.iterations)) 0 s.measured
  in
  [
    metric "setup_s" "s" (median s.setup_s);
    metric "requests_per_s" "1/s" (n /. s.elapsed_s);
    metric "firings_per_s" "1/s" (float_of_int fired /. s.elapsed_s);
    metric "advance_p50_ms" "ms" (quantile (ms "advance") 0.5);
    metric "advance_p95_ms" "ms" (quantile (ms "advance") 0.95);
    metric "submit_p50_ms" "ms" (quantile (ms "submit") 0.5);
    metric "submit_p95_ms" "ms" (quantile (ms "submit") 0.95);
    metric "reconfigure_p50_ms" "ms" (quantile (ms "reconfigure") 0.5);
    metric "daemon_cpu_ms_per_req" "ms" (s.cpu_ms /. n);
    metric "daemon_peak_rss_mib" "MiB" (s.peak_rss_kib /. 1024.0);
  ]

let print_result ~correct metrics =
  let attempted, failed =
    Hashtbl.fold (fun _ t (a, f) -> (a + t.attempted, f + t.failed)) tallies (0, 0)
  in
  let kinds = List.sort compare (Hashtbl.fold (fun k t acc -> (k, t) :: acc) tallies []) in
  List.iter
    (fun (k, t) -> Printf.printf "ops %-12s attempted %6d failed %d\n" k t.attempted t.failed)
    kinds;
  List.iter (fun (n, u, v) -> Printf.printf "metric %-36s %14.6f %s\n" n v u) metrics;
  List.iter (fun f -> Printf.printf "failure %s\n" f) (List.rev !failures);
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct); ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (n, u, v) ->
                     (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
                   metrics) );
          ]))

(* ---------- spans ---------- *)

(* In-memory span log of the traced replay, written out at the end. *)
type span = { sname : string; t0 : float; t1 : float; idx : int; parent : int; rid : int }

let spans = ref []
let nspans = ref 0
let current = ref (-1)

let span name rid f =
  let idx = !nspans in
  incr nspans;
  let parent = !current in
  current := idx;
  let t0 = now () in
  let r = try f () with e -> current := parent; raise e in
  let t1 = now () in
  current := parent;
  spans := { sname = name; t0; t1; idx; parent; rid } :: !spans;
  r

let write_spans path =
  let oc = open_out_bin path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"start_us\":%.1f,\"end_us\":%.1f,\"id\":%d,\"parent\":%d,\
         \"request\":%d}\n"
        (if i = 0 then "" else ",")
        s.sname (s.t0 *. 1e6) (s.t1 *. 1e6) s.idx s.parent s.rid)
    (List.rev !spans);
  output_string oc "]\n";
  close_out oc

(* ---------- shadow layer calls ---------- *)

(* The layer calls the daemon makes inside [Daemon.handle] are re-issued
   by the benchmark right after the daemon's call, on a sample of the
   requests, each inside its own span.  They run in the same domain, so
   the symbolic kernel's memo and hash-cons tables are at least as warm
   as they were for the daemon (its own calls already hit the memo on
   all but a fraction of a lookup per check). *)
let shadow_stride = 3

module Graph = Tpdf_core.Graph
module Valuation = Tpdf_param.Valuation
module Fault = Tpdf_fault
module Engine = Tpdf_sim.Engine

type shadow = {
  graph : Graph.t;
  mutable valuation : Valuation.t;
  mutable ck : Fault.Supervisor.checkpoint option;
  mutable sdone : int;
}

let parse src =
  match Tpdf_core.Serial.of_string src with
  | Ok g -> g
  | Error e -> fail "shadow parse: %s" e

let valuation_of req =
  match Tpdf_serve.Protocol.opt_params req "params" with
  | Ok ps -> Valuation.of_list ps
  | Error e -> fail "shadow params: %s" e

let str req k = match field k req with J.String s -> s | _ -> ""

(* [Admission.check]'s rungs, each timed, in its order. *)
let rungs rid graph valuation =
  let rep = span "analysis.repetition" rid (fun () -> Tpdf_core.Analysis.repetition graph) in
  ignore (span "analysis.rate_safety" rid (fun () -> Tpdf_core.Analysis.rate_safety graph));
  ignore
    (span "analysis.boundedness" rid (fun () ->
         Tpdf_core.Analysis.check_boundedness graph ~samples:[ valuation ]));
  ignore (Tpdf_csdf.Repetition.q_int rep valuation);
  let mcr =
    span "mcr.build" rid (fun () ->
        Tpdf_sched.Mcr.build
          (Tpdf_csdf.Concrete.make (Graph.skeleton graph) valuation))
  in
  ignore
    (span "mcr.solve" rid (fun () ->
         try Tpdf_sched.Mcr.iteration_period_ms mcr with Failure _ -> nan));
  (List.length (Tpdf_sched.Mcr.nodes mcr), List.length (Tpdf_sched.Mcr.edges mcr))

(* One supervised iteration as the daemon's advance does it, then a bare
   engine iteration of the same graph for the engine's share. *)
let shadow_iteration rid sh =
  let policy =
    Fault.Policy.make ~max_retries:2 ~retry_backoff_ms:0.5 ~deadlines_ms:[]
      ~degrade_after:3 ~max_restarts:0
      ~fallbacks:(Fault.Chaos.default_fallbacks sh.graph) ()
  in
  let last = ref sh.ck in
  ignore
    (span "supervisor.iteration" rid (fun () ->
         Fault.Chaos.run ~graph:sh.graph ~seed:0 ~specs:[] ~policy
           ~iterations:(sh.sdone + 1) ~checkpoint_every:1
           ~on_checkpoint:(fun ck -> last := Some ck)
           ?resume:sh.ck ~valuation:sh.valuation ()));
  sh.ck <- !last;
  sh.sdone <- sh.sdone + 1;
  let scen = Fault.Chaos.default_scenario sh.graph in
  let behaviors =
    List.filter_map
      (fun a ->
        if Graph.is_control sh.graph a then
          Some (a, Tpdf_sim.Reconfigure.scenario_control_behavior sh.graph scen)
        else None)
      (Graph.actors sh.graph)
  in
  let targets = List.map (fun a -> (a, 0)) (Tpdf_sim.Reconfigure.starved_actors sh.graph scen) in
  let eng =
    span "engine.create" rid (fun () ->
        Engine.create ~graph:sh.graph ~valuation:sh.valuation ~behaviors ~default:0 ())
  in
  match span "engine.run" rid (fun () -> Engine.run_outcome ~targets eng) with
  | Engine.Completed st -> List.fold_left (fun a (_, k) -> a + k) 0 st.Engine.firings
  | _ -> fail "shadow engine iteration did not complete"

(* ---------- the in-process replay ---------- *)

type replay = {
  mismatches : int;
  kinds : string list;  (** op kind per replayed request *)
  handle_ms : (string * float) list;  (** op kind, Daemon.handle ms *)
  cold : bool list;  (** per advance: the tenant was revived *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  memo_hits : int;
  memo_misses : int;
  checks : int;  (** submits + reconfigures analysed by the daemon *)
  revived : int;
  evicted : int;
  requests : int;
  req_bytes : float list;
  resp_bytes : float list;
  nodes_edges : (int * int) list;
  engine_firings : int list;
  tenant_bytes : float;
  manifest_bytes : float;
}

let counter d name =
  Option.value (List.assoc_opt name (Tpdf_obs.Metrics.counters (D.metrics d))) ~default:0

let file_sizes dir =
  let rec walk acc path =
    match Unix.stat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.fold_left (fun acc e -> walk acc (Filename.concat path e)) acc (Sys.readdir path)
    | { Unix.st_size; _ } -> float_of_int st_size :: acc
    | exception Unix.Unix_error _ -> acc
  in
  walk [] dir

let replay o (log : (string * string) list) ~kinds =
  let state = Filename.concat o.run_dir "replay-state" in
  rm_rf state;
  let cfg =
    {
      D.default_config with
      state_dir = (if o.workload.persist then Some state else None);
      checkpoint_every = 1;
      max_resident = o.workload.max_resident;
    }
  in
  let d = match D.create cfg with Ok d -> d | Error e -> fail "replay daemon: %s" e in
  let shadows : (string, shadow) Hashtbl.t = Hashtbl.create 64 in
  let mismatches = ref 0 and handle_ms = ref [] and cold = ref [] in
  let minor = ref 0.0 and promoted = ref 0.0 and major = ref 0 in
  let hits = ref 0 and misses = ref 0 and checks = ref 0 in
  let nodes_edges = ref [] and engine_firings = ref [] in
  let revived0 = counter d "serve.revived" and evicted0 = counter d "serve.evicted" in
  List.iteri
    (fun rid ((line, expected), kind) ->
      let handle () =
        let req = span "json.decode" rid (fun () -> J.of_string line) in
        match req with
        | Error e -> fail "replay decode: %s" e
        | Ok req ->
            let g0 = Gc.quick_stat () in
            let h0 = Tpdf_param.Memo.hits () and x0 = Tpdf_param.Memo.misses () in
            let rv0 = counter d "serve.revived" in
            let t0 = now () in
            let resp = span "daemon.handle" rid (fun () -> D.handle d req) in
            let dt = (now () -. t0) *. 1000.0 in
            let g1 = Gc.quick_stat () in
            minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
            promoted := !promoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
            major := !major + (g1.Gc.major_collections - g0.Gc.major_collections);
            if kind = "submit" || kind = "reconfigure" then begin
              hits := !hits + (Tpdf_param.Memo.hits () - h0);
              misses := !misses + (Tpdf_param.Memo.misses () - x0);
              incr checks
            end;
            if kind = "advance" then cold := (counter d "serve.revived" > rv0) :: !cold;
            handle_ms := (kind, dt) :: !handle_ms;
            (req, span "json.encode" rid (fun () -> J.to_string resp))
      in
      let req, got = span ("request." ^ kind) rid handle in
      if got <> expected then begin
        incr mismatches;
        if !mismatches <= 3 then
          failures := Printf.sprintf "replay %s: socket %s, in-process %s" kind expected got :: !failures
      end;
      (* shadow layer calls, outside the daemon.handle span; removes and
         admitted submits always, to keep the shadow fleet whole *)
      let name = str req "name" in
      let sampled = rid mod shadow_stride = 0 in
      match kind with
      | "submit" | "submit_bad" ->
          let src = str req "graph" in
          let valuation = valuation_of req in
          let graph = span "serial.parse" rid (fun () -> parse src) in
          if kind = "submit" then
            Hashtbl.replace shadows name { graph; valuation; ck = None; sdone = 0 };
          if sampled then begin
            ignore
              (span
                 (if kind = "submit" then "admission.check" else "admission.reject")
                 rid
                 (fun () -> Tpdf_serve.Admission.check ~graph ~valuation ()));
            if kind = "submit" then nodes_edges := rungs rid graph valuation :: !nodes_edges
          end
      | "reconfigure" ->
          let valuation = valuation_of req in
          let sh = Hashtbl.find shadows name in
          sh.valuation <- valuation;
          if sampled then begin
            ignore
              (span "admission.check" rid (fun () ->
                   Tpdf_serve.Admission.check ~graph:sh.graph ~valuation ()));
            ignore (rungs rid sh.graph valuation)
          end
      | "advance" ->
          let n = match field "iterations" req with J.Int n -> n | _ -> 1 in
          let sh = Hashtbl.find shadows name in
          if sampled then
            for _ = 1 to n do
              engine_firings := shadow_iteration rid sh :: !engine_firings
            done
      | "remove" -> Hashtbl.remove shadows name
      | _ -> ())
    (List.combine log kinds);
  let sizes sub = match cfg.D.state_dir with Some s -> file_sizes (Filename.concat s sub) | None -> [] in
  {
    mismatches = !mismatches;
    kinds;
    handle_ms = List.rev !handle_ms;
    cold = List.rev !cold;
    minor_words = !minor;
    promoted_words = !promoted;
    major_collections = !major;
    memo_hits = !hits;
    memo_misses = !misses;
    checks = !checks;
    revived = counter d "serve.revived" - revived0;
    evicted = counter d "serve.evicted" - evicted0;
    requests = List.length log;
    req_bytes = List.map (fun (l, _) -> float_of_int (String.length l)) log;
    resp_bytes = List.map (fun (_, r) -> float_of_int (String.length r)) log;
    nodes_edges = !nodes_edges;
    engine_firings = !engine_firings;
    tenant_bytes = mean (sizes "tenants");
    manifest_bytes = mean (sizes "manifest");
  }

(* ---------- per-layer metrics ---------- *)

let per_layer ~persist (s : socket_run) (rp : replay) =
  let durs name =
    List.filter_map
      (fun sp -> if sp.sname = name then Some ((sp.t1 -. sp.t0) *. 1000.0) else None)
      !spans
  in
  let p50 name = median (durs name) in
  let total name = sum (durs name) in
  let kind_of = Array.of_list rp.kinds in
  (* time under [Daemon.handle] of the sampled requests of one kind,
     against the shadow layer calls made for them *)
  let sampled kind rid = rid mod shadow_stride = 0 && kind_of.(rid) = kind in
  let total_of kind name =
    sum
      (List.filter_map
         (fun sp ->
           if sp.sname = name && sampled kind sp.rid then Some ((sp.t1 -. sp.t0) *. 1000.0)
           else None)
         !spans)
  in
  let handle kind = List.filter_map (fun (k, ms) -> if k = kind then Some ms else None) rp.handle_ms in
  let advances = handle "advance" in
  let split want =
    List.filter_map (fun (ms, c) -> if c = want then Some ms else None) (List.combine advances rp.cold)
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let unattributed kind beneath =
    1.0 -. ratio (sum (List.map (total_of kind) beneath)) (total_of kind "daemon.handle")
  in
  let measured_ms = sum (List.map (fun x -> x.ms) s.measured) in
  let measured_handle =
    (* the replay's last [List.length measured] entries are the measured phase *)
    let skip = List.length rp.handle_ms - List.length s.measured in
    sum (List.filteri (fun i _ -> i >= skip) (List.map snd rp.handle_ms))
  in
  let mutations =
    List.length
      (List.filter
         (fun x -> List.mem x.rq.kind [ "submit"; "advance"; "reconfigure"; "remove" ])
         s.measured)
  in
  let queries =
    List.filter_map
      (fun x -> if x.rq.kind = "query" then Some (x.ms *. 1000.0) else None)
      s.measured
  in
  let fpi = List.map float_of_int rp.engine_firings in
  let kreq = float_of_int rp.requests /. 1000.0 in
  [
    metric "json.decode_us" "us" (1000.0 *. mean (durs "json.decode"));
    metric "json.encode_us" "us" (1000.0 *. mean (durs "json.encode"));
    metric "json.request_bytes" "B" (mean rp.req_bytes);
    metric "json.response_bytes" "B" (mean rp.resp_bytes);
    metric "server.query_rtt_us" "us" (median queries);
    metric "server.outside_share" "ratio" (1.0 -. ratio measured_handle measured_ms);
    metric "daemon.handle_advance_ms" "ms" (median advances);
    metric "daemon.handle_submit_ms" "ms" (median (handle "submit"));
    metric "daemon.handle_reconfigure_ms" "ms" (median (handle "reconfigure"));
    metric "daemon.handle_remove_ms" "ms" (median (handle "remove"));
    metric "serial.parse_ms" "ms" (p50 "serial.parse");
    metric "admission.check_ms" "ms" (p50 "admission.check");
    metric "admission.reject_ms" "ms" (p50 "admission.reject");
    metric "analysis.repetition_ms" "ms" (p50 "analysis.repetition");
    metric "analysis.rate_safety_ms" "ms" (p50 "analysis.rate_safety");
    metric "analysis.boundedness_ms" "ms" (p50 "analysis.boundedness");
    metric "mcr.build_ms" "ms" (p50 "mcr.build");
    metric "mcr.solve_ms" "ms" (p50 "mcr.solve");
    metric "mcr.nodes" "count" (mean (List.map (fun (n, _) -> float_of_int n) rp.nodes_edges));
    metric "mcr.edges" "count" (mean (List.map (fun (_, e) -> float_of_int e) rp.nodes_edges));
    metric "param.memo_hits_per_check" "count"
      (ratio (float_of_int rp.memo_hits) (float_of_int rp.checks));
    metric "param.memo_misses_per_check" "count"
      (ratio (float_of_int rp.memo_misses) (float_of_int rp.checks));
    metric "supervisor.iteration_ms" "ms" (p50 "supervisor.iteration");
    metric "supervisor.overhead_share" "ratio"
      (1.0 -. ratio (p50 "engine.create" +. p50 "engine.run") (p50 "supervisor.iteration"));
    metric "engine.create_ms" "ms" (p50 "engine.create");
    metric "engine.run_ms" "ms" (p50 "engine.run");
    metric "engine.firings_per_iteration" "count" (mean fpi);
    metric "engine.firings_per_s" "1/s" (ratio (sum fpi) (total "engine.run" /. 1000.0));
    metric "gc.minor_words_per_req" "words" (rp.minor_words /. float_of_int rp.requests);
    metric "gc.major_collections_per_kreq" "count" (float_of_int rp.major_collections /. kreq);
    metric "gc.promoted_words_per_req" "words" (rp.promoted_words /. float_of_int rp.requests);
    metric "trace.unattributed_share.advance" "ratio" (unattributed "advance" [ "supervisor.iteration" ]);
    metric "trace.unattributed_share.submit" "ratio"
      (unattributed "submit" [ "serial.parse"; "admission.check" ]);
    metric "trace.unattributed_share.reconfigure" "ratio"
      (unattributed "reconfigure" [ "admission.check" ]);
  ]
  @
  (* only a daemon with a state directory checkpoints, evicts and
     revives *)
  if persist then
    [
      metric "registry.write_bytes_per_mutation" "B" (ratio s.wchar (float_of_int mutations));
      metric "registry.write_syscalls_per_mutation" "count" (ratio s.syscw (float_of_int mutations));
      metric "ckpt.tenant_bytes" "B" rp.tenant_bytes;
      metric "ckpt.manifest_bytes" "B" rp.manifest_bytes;
      metric "registry.revived_per_kreq" "count" (float_of_int rp.revived /. kreq);
      metric "registry.evicted_per_kreq" "count" (float_of_int rp.evicted /. kreq);
      metric "daemon.handle_advance_cold_ms" "ms" (median (split true));
      metric "daemon.handle_advance_hot_ms" "ms" (median (split false));
    ]
  else []

(* ---------- main ---------- *)

let usage =
  "perfbench --workload NAME --seed N --seconds S --trace 0|1 [--daemon EXE] \
   [--run-dir DIR]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let exe = ref "_build/default/bin/tpdf_tool.exe" and run_dir = ref ".perfbench-run" in
  let setups = ref 5 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
      ("--daemon", Arg.Set_string exe, "EXE tpdf_tool executable");
      ("--run-dir", Arg.Set_string run_dir, "DIR run directory for sockets and state");
      ("--setups", Arg.Set_int setups, "N daemon set-ups per run (median reported)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload; one of: "
          ^ String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  let root = !run_dir in
  let run_dir = Filename.concat root (Printf.sprintf "%s-%d" w.name (Unix.getpid ())) in
  mkdir_p run_dir;
  let o =
    {
      workload = w;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      exe = !exe;
      run_dir;
      setups = max 1 !setups;
    }
  in
  let fs_type =
    try
      let ic = Unix.open_process_args_in "stat" [| "stat"; "-f"; "-c"; "%T"; run_dir |] in
      let t = input_line ic in
      ignore (Unix.close_process_in ic);
      t
    with _ -> "unknown"
  in
  Printf.printf "workload %s seed %d seconds %g trace %d nproc %d ocaml %s state_fs %s\n%!"
    w.name o.seed o.seconds !trace (Domain.recommended_domain_count ()) Sys.ocaml_version fs_type;
  let s = socket_run o in
  (* The traced run replays the socket run in-process; the end-to-end
     runs record no spans and skip it. *)
  let rp = if o.trace then Some (replay o s.log ~kinds:s.log_kinds) else None in
  let checks =
    match rp with
    | Some rp -> ("replay", rp.mismatches = 0) :: s.end_checks
    | None -> s.end_checks
  in
  List.iter (fun (k, ok) -> Printf.printf "check %-16s %s\n" k (if ok then "ok" else "FAILED")) checks;
  let correct =
    List.for_all snd checks && Hashtbl.fold (fun _ t ok -> ok && t.failed = 0) tallies true
  in
  if o.trace then begin
    let path = Filename.concat root (Printf.sprintf "spans-%s-%d.json" w.name o.seed) in
    write_spans path;
    Printf.printf "spans %d written to %s\n" !nspans path
  end;
  let metrics =
    match rp with Some rp -> per_layer ~persist:w.persist s rp | None -> end_to_end s
  in
  rm_rf run_dir;
  print_result ~correct metrics
