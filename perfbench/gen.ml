(* Seeded input generator for the tpdf_serve benchmark.

   Everything the daemon receives — graph text and valuations — comes
   from here, together with what the daemon must answer: each admitted
   tenant's per-iteration cost from this module's own balance-equation
   solver (rational propagation over the generated edge list, never
   [Analysis.repetition]), its MCR period from the family's construction,
   and for the known-bad families the admission rung that must reject
   them. *)

(* ---------- splitmix64 ---------- *)

type rng = { mutable s : int64 }

let rng seed = { s = Int64.of_int seed }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int r n = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int n))
let range r lo hi = lo + int r (hi - lo + 1)
let pick r a = a.(int r (Array.length a))

(* ---------- power products ---------- *)

(* A rate is [c · Π p^e] with a positive integer coefficient; a balance
   solution entry is a rational coefficient times a Laurent monomial.
   Exponent lists are sorted by parameter name, zero exponents dropped. *)
type rate = { c : int; ps : (string * int) list }

let const c = { c; ps = [] }
let par ?(c = 1) p = { c; ps = [ (p, 1) ] }

let rate_text { c; ps } =
  let factors = List.concat_map (fun (p, e) -> List.init e (fun _ -> p)) ps in
  match (c, factors) with
  | c, [] -> string_of_int c
  | 1, fs -> String.concat "*" fs
  | c, fs -> String.concat "*" (string_of_int c :: fs)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let rec merge sign a b =
  match (a, b) with
  | [], b -> List.map (fun (p, e) -> (p, sign * e)) b
  | a, [] -> a
  | (pa, ea) :: ra, (pb, eb) :: rb ->
      let c = String.compare pa pb in
      if c < 0 then (pa, ea) :: merge sign ra b
      else if c > 0 then (pb, sign * eb) :: merge sign a rb
      else
        let e = ea + (sign * eb) in
        if e = 0 then merge sign ra rb else (pa, e) :: merge sign ra rb

(* [num/den · Π p^e] *)
type entry = { num : int; den : int; ex : (string * int) list }

let mk num den ex =
  let g = gcd num den in
  { num = num / g; den = den / g; ex }

(* [e · x / y] *)
let scale e x y = mk (e.num * x.c) (e.den * y.c) (merge (-1) (merge 1 e.ex x.ps) y.ps)

(* ---------- graphs ---------- *)

type chan = { src : string; dst : string; prod : rate; cons : rate }

type graph = {
  actors : (string * int) list;  (** name, phases (τ) in declaration order *)
  chans : chan list;
  text : string;  (** the serial form the daemon receives *)
  params : string list;
}

(** The least positive integer-coefficient solution of the balance
    equations [r(src)·prod = r(dst)·cons], as entries in actor order, or
    the channel that leaves them unbalanced. *)
let solve g =
  let r = Hashtbl.create 64 in
  let root, _ = List.hd g.actors in
  Hashtbl.replace r root (mk 1 1 []);
  let rec grow () =
    let progressed = ref false in
    List.iter
      (fun ch ->
        match (Hashtbl.find_opt r ch.src, Hashtbl.find_opt r ch.dst) with
        | Some e, None ->
            Hashtbl.replace r ch.dst (scale e ch.prod ch.cons);
            progressed := true
        | None, Some e ->
            Hashtbl.replace r ch.src (scale e ch.cons ch.prod);
            progressed := true
        | _ -> ())
      g.chans;
    if !progressed then grow ()
  in
  grow ();
  match
    List.find_opt
      (fun ch ->
        let s = scale (Hashtbl.find r ch.src) ch.prod ch.cons
        and d = Hashtbl.find r ch.dst in
        s.num * d.den <> d.num * s.den || s.ex <> d.ex)
      g.chans
  with
  | Some ch -> Error (Printf.sprintf "%s -> %s unbalanced" ch.src ch.dst)
  | None ->
      let es = List.map (fun (a, _) -> (a, Hashtbl.find r a)) g.actors in
      (* cancel the common monomial: subtract each parameter's minimum
         exponent (absent = 0) *)
      let mins =
        List.map
          (fun p ->
            ( p,
              List.fold_left
                (fun m (_, e) ->
                  min m (Option.value (List.assoc_opt p e.ex) ~default:0))
                max_int es ))
          g.params
      in
      let mins = List.filter (fun (_, m) -> m <> 0) mins in
      let l = List.fold_left (fun l (_, e) -> l / gcd l e.den * e.den) 1 es in
      let ints = List.map (fun (a, e) -> (a, e.num * (l / e.den), e)) es in
      let g' = List.fold_left (fun g (_, n, _) -> gcd g n) 0 ints in
      Ok
        (List.map
           (fun (a, n, e) -> (a, n / g', merge (-1) e.ex mins))
           ints)

let eval valuation (c, ex) =
  List.fold_left
    (fun acc (p, e) ->
      let v = List.assoc p valuation in
      let rec pow b k = if k = 0 then 1 else b * pow b (k - 1) in
      acc * pow v e)
    c ex

(** q = τ·r under the valuation, in actor order. *)
let firings g sol valuation =
  List.map (fun (a, n, ex) -> List.assoc a g.actors * eval valuation (n, ex)) sol

(** Firings per graph iteration. *)
let cost g sol valuation = List.fold_left ( + ) 0 (firings g sol valuation)

(* ---------- families ---------- *)

type draft = {
  mutable decls : string list;
  mutable lines : string list;
  mutable b_actors : (string * int) list;
  mutable b_chans : chan list;
  mutable nchan : int;
}

let draft () = { decls = []; lines = []; b_actors = []; b_chans = []; nchan = 0 }

let actor b ?(phases = 1) ?(attrs = "") kind name =
  b.decls <- Printf.sprintf "  %s %s%s;" kind name attrs :: b.decls;
  b.b_actors <- (name, phases) :: b.b_actors

(* [prods]/[conss]: per-phase rate texts; the totals drive the solver. *)
let chan b ?(ctrl = false) ?(attrs = "") src prods prod dst conss cons =
  let name = Printf.sprintf "e%d" b.nchan in
  b.nchan <- b.nchan + 1;
  b.lines <-
    Printf.sprintf "  %s %s = %s [%s] -> [%s] %s%s;"
      (if ctrl then "ctrl" else "channel")
      name src (String.concat "," prods) (String.concat "," conss) dst attrs
    :: b.lines;
  b.b_chans <- { src; dst; prod; cons } :: b.b_chans;
  name

let finish b ~name ~params =
  {
    actors = List.rev b.b_actors;
    chans = List.rev b.b_chans;
    params;
    text =
      String.concat "\n"
        ((Printf.sprintf "tpdf %s {" name :: List.rev b.decls)
        @ List.rev b.lines @ [ "}"; "" ]);
  }

type family =
  | Fig2 of int  (** chained Fig. 2 blocks *)
  | Sym of int  (** acyclic symbolic-rate chain of n actors *)
  | Ring of int * int  (** unit-rate ring: k actors, d initial tokens *)
  | Inconsistent of int  (** unit chain plus an unbalanced bypass *)
  | Unsafe of int  (** unit chain feeding the rate-unsafe gadget *)

(* The paper's Fig. 2 block (control actor C, two-mode transaction
   kernel F), [blocks] times, F of block i feeding A of block i+1 at
   [1,1] -> [p_i] so every block's A fires twice per iteration. *)
let fig2 blocks =
  let b = draft () in
  let params = List.init blocks (Printf.sprintf "p%d") in
  for i = 0 to blocks - 1 do
    let n s = Printf.sprintf "%s%d" s i and p = Printf.sprintf "p%d" i in
    actor b "kernel" (n "A");
    actor b "kernel" (n "B");
    actor b "control" (n "C");
    actor b "kernel" (n "D");
    actor b "kernel" (n "E");
    actor b ~phases:2 ~attrs:" phases=2 kind=transaction" "kernel" (n "F");
    ignore (chan b (n "A") [ p ] (par p) (n "B") [ "1" ] (const 1));
    ignore (chan b (n "B") [ "1" ] (const 1) (n "C") [ "2" ] (const 2));
    ignore (chan b (n "B") [ "1" ] (const 1) (n "D") [ "2" ] (const 2));
    ignore (chan b (n "B") [ "1" ] (const 1) (n "E") [ "1" ] (const 1));
    ignore
      (chan b ~ctrl:true (n "C") [ "2" ] (const 2) (n "F") [ "1"; "1" ] (const 2));
    let ed =
      chan b ~attrs:" priority=1" (n "D") [ "2" ] (const 2) (n "F") [ "1"; "1" ]
        (const 2)
    in
    let ee =
      chan b ~attrs:" priority=2" (n "E") [ "1" ] (const 1) (n "F") [ "0"; "2" ]
        (const 2)
    in
    b.lines <-
      Printf.sprintf "  modes %s { take_d inputs(%s); take_e inputs(%s); }"
        (n "F") ed ee
      :: b.lines;
    if i + 1 < blocks then
      ignore
        (chan b (n "F") [ "1"; "1" ] (const 2)
           (Printf.sprintf "A%d" (i + 1))
           [ p ] (par p))
  done;
  finish b ~name:"fig2chain" ~params

let sym_params = [ "a"; "b"; "c" ]

let sym_rate r =
  match int r 4 with
  | 0 -> const (range r 1 3)
  | 1 | 2 -> par ~c:(range r 1 2) (pick r (Array.of_list sym_params))
  | _ -> { c = 1; ps = [ ("a", 1); ("b", 1) ] }

let sym r n =
  let b = draft () in
  for i = 0 to n - 1 do
    actor b "kernel" (Printf.sprintf "S%d" i)
  done;
  for i = 0 to n - 2 do
    let x = sym_rate r and y = sym_rate r in
    ignore
      (chan b (Printf.sprintf "S%d" i) [ rate_text x ] x
         (Printf.sprintf "S%d" (i + 1))
         [ rate_text y ] y)
  done;
  finish b ~name:"symchain" ~params:sym_params

let ring k d =
  let b = draft () in
  for i = 0 to k - 1 do
    actor b "kernel" (Printf.sprintf "R%d" i)
  done;
  for i = 0 to k - 1 do
    ignore
      (chan b
         ~attrs:(if i = k - 1 then Printf.sprintf " init=%d" d else "")
         (Printf.sprintf "R%d" i) [ "1" ] (const 1)
         (Printf.sprintf "R%d" ((i + 1) mod k))
         [ "1" ] (const 1))
  done;
  finish b ~name:"ring" ~params:[]

let unit_chain b n =
  for i = 0 to n - 1 do
    actor b "kernel" (Printf.sprintf "X%d" i)
  done;
  for i = 0 to n - 2 do
    ignore
      (chan b (Printf.sprintf "X%d" i) [ "1" ] (const 1)
         (Printf.sprintf "X%d" (i + 1))
         [ "1" ] (const 1))
  done

let inconsistent n =
  let b = draft () in
  unit_chain b n;
  ignore
    (chan b "X0" [ "2" ] (const 2) (Printf.sprintf "X%d" (n - 1)) [ "1" ] (const 1));
  finish b ~name:"inconsistent" ~params:[]

(* The rate-unsafe example of graphs/unsafe.tpdf: control actor C (two
   phases) sets F's mode once per phase while F fires once per cycle of
   C, so the control token's reach crosses an iteration of F. *)
let unsafe n =
  let b = draft () in
  unit_chain b n;
  actor b "kernel" "A";
  actor b ~phases:2 ~attrs:" phases=2" "control" "C";
  actor b "kernel" "F";
  ignore (chan b (Printf.sprintf "X%d" (n - 1)) [ "1" ] (const 1) "A" [ "1" ] (const 1));
  ignore (chan b "A" [ "2" ] (const 2) "C" [ "1"; "1" ] (const 2));
  ignore (chan b ~ctrl:true "C" [ "1"; "1" ] (const 2) "F" [ "1" ] (const 1));
  ignore (chan b "A" [ "2" ] (const 2) "F" [ "1" ] (const 1));
  finish b ~name:"unsafe" ~params:[]

let build r = function
  | Fig2 blocks -> fig2 blocks
  | Sym n -> sym r n
  | Ring (k, d) -> ring k d
  | Inconsistent n -> inconsistent n
  | Unsafe n -> unsafe n

(* ---------- tenants ---------- *)

type expect =
  | Admit of { cost : int; period_ms : float }
  | Reject of string  (** the rung: prefix of the rejection message *)

type tenant = {
  family : family;
  graph : graph;
  sol : (string * int * (string * int) list) list;  (** [] when rejected *)
  mutable valuation : (string * int) list;
}

(** [values] dealt to the tenant's parameters in a seeded order: tenants
    of one graph shape then differ in valuation but not in cost. *)
let dealt r t values =
  let a = Array.of_list values in
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  List.combine t.graph.params (Array.to_list a)

(** A fresh valuation whose cost fits [cap], if one of 50 draws does:
    the generator's bound on admission work, since MCR time grows about
    quadratically with the cost. *)
let new_valuation r t ~cap =
  let lo, hi = match t.family with Fig2 _ -> (1, 5) | _ -> (1, 4) in
  let rec go tries =
    if tries = 0 then None
    else
      let v = List.map (fun p -> (p, range r lo hi)) t.graph.params in
      if cost t.graph t.sol v <= cap then Some v else go (tries - 1)
  in
  go 50

(** A tenant of the family whose cost fits [cap]; symbolic chains whose
    structure cannot fit are redrawn. *)
let rec tenant r family ~cap =
  let graph = build r family in
  match family with
  | Inconsistent _ | Unsafe _ -> { family; graph; sol = []; valuation = [] }
  | _ -> (
      match solve graph with
      | Error e -> failwith ("generator: consistent family unbalanced: " ^ e)
      | Ok sol ->
          let t = { family; graph; sol; valuation = [] } in
          match new_valuation r t ~cap with
          | Some v ->
              t.valuation <- v;
              t
          | None -> tenant r family ~cap)

(* MCR at 1 ms per firing, computed from the construction: every actor
   fires its q firings in order (its sequential self-loop holds one
   token), so the bound is at least max q; a unit ring of k actors
   holding d tokens cycles in k/d.  The generated graphs have no other
   cycles. *)
let expect t =
  match t.family with
  | Inconsistent _ -> (
      match solve t.graph with
      | Error _ -> Reject "rate inconsistent"
      | Ok _ -> failwith "generator: inconsistent family balanced")
  | Unsafe _ -> Reject "rate unsafe"
  | Ring _ | Fig2 _ | Sym _ ->
      let q = firings t.graph t.sol t.valuation in
      let ring =
        match t.family with Ring (k, d) -> float_of_int k /. float_of_int d | _ -> 0.0
      in
      Admit
        {
          cost = List.fold_left ( + ) 0 q;
          period_ms = Float.max ring (float_of_int (List.fold_left max 0 q));
        }
