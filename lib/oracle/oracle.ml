(* The oracle driver: generate seeded problems, run one oracle's checks
   on each, and shrink any failure to a minimal counterexample with a
   copy-pasteable repro line. Everything that differs between oracles
   comes in through the ['p t] record. *)

type failure = { check : string; detail : string }

type outcome = { checks : int; failures : failure list }

let failure_names (o : outcome) =
  List.sort_uniq compare (List.map (fun f -> f.check) o.failures)

type ctx = {
  mutable count : int;
  mutable failed : failure list;
  rng : Rng.t;
  stats : (string * string, int) Hashtbl.t option;
      (* [None] while shrinking or reproducing *)
}

let check ctx name ok detail =
  ctx.count <- ctx.count + 1;
  if not ok then ctx.failed <- { check = name; detail = detail () } :: ctx.failed

let rng ctx = ctx.rng

let bump ctx key n =
  match ctx.stats with
  | None -> ()
  | Some tbl ->
    Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let tally ctx stat key = bump ctx (stat, key) 1

let add ctx stat n = bump ctx (stat, "") n

type 'p t = {
  name : string;
  flag : string;
  max_dim : int;
  gen : Rng.t -> max_dim:int -> 'p;
  checks : ctx -> 'p -> unit;
  proposals : 'p -> 'p list;
  to_spec : 'p -> string;
  of_spec : string -> ('p, string) result;
  tallies : string list;
  sums : string list;
}

(* FNV-1a over the spec string. *)
let seed_of spec =
  let h = ref 0x811C9DC5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land max_int) spec;
  !h

let checked ?stats o p =
  let ctx = { count = 0; failed = []; rng = Rng.make (seed_of (o.to_spec p)); stats } in
  o.checks ctx p;
  { checks = ctx.count; failures = List.rev ctx.failed }

let outcome o p = checked o p

let check_spec o spec = Result.map (fun p -> (p, outcome o p)) (o.of_spec spec)

let minimize ?(budget = 200) ~proposals ~still_fails p =
  let spent = ref 0 in
  let try_one q =
    !spent < budget
    && begin
         incr spent;
         still_fails q
       end
  in
  let rec go p =
    match List.find_opt try_one (proposals p) with Some q -> go q | None -> p
  in
  go p

type 'p counterexample = {
  index : int;
  original : 'p;
  shrunk : 'p;
  failures : failure list;
}

type 'p report = {
  cases : int;
  checks : int;
  tallies : (string * (string * int) list) list;
  sums : (string * int) list;
  counterexamples : 'p counterexample list;
}

let ok r = r.counterexamples = []

let shrink o index p (failed : outcome) =
  let names = failure_names failed in
  let still_fails q =
    List.exists (fun n -> List.mem n names) (failure_names (outcome o q))
  in
  let shrunk = minimize ~proposals:o.proposals ~still_fails p in
  let final = outcome o shrunk in
  { index;
    original = p;
    shrunk;
    failures = (if final.failures = [] then failed.failures else final.failures) }

let run ?(log = ignore) ?max_dim o ~cases ~seed =
  let max_dim = Option.value max_dim ~default:o.max_dim in
  let rng = Rng.make seed in
  let stats = Hashtbl.create 16 in
  let checks = ref 0 and counterexamples = ref [] in
  for index = 1 to cases do
    let p = o.gen rng ~max_dim in
    let out = checked ~stats o p in
    checks := !checks + out.checks;
    if out.failures <> [] then begin
      let ce = shrink o index p out in
      counterexamples := ce :: !counterexamples;
      log
        (Printf.sprintf "case %d diverged: %s (shrunk to %s; checks: %s)" index
           (o.to_spec p) (o.to_spec ce.shrunk)
           (String.concat ", " (failure_names out)))
    end
  done;
  let keys stat =
    List.sort compare
      (Hashtbl.fold
         (fun (s, k) v acc -> if s = stat then (k, v) :: acc else acc)
         stats [])
  in
  { cases;
    checks = !checks;
    tallies = List.map (fun stat -> (stat, keys stat)) o.tallies;
    sums =
      List.map
        (fun stat ->
          (stat, Option.value ~default:0 (Hashtbl.find_opt stats (stat, ""))))
        o.sums;
    counterexamples = List.rev !counterexamples }

let pp_failure ppf f = Format.fprintf ppf "[%s] %s" f.check f.detail

let pp_tally ppf bindings =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ")
    (fun ppf (k, v) -> Format.fprintf ppf "%s=%d" k v)
    ppf bindings

(* Quote a spec for the shell when it holds anything but the
   characters plain specs use (graph specs carry '|' and '*'). *)
let shell_word s =
  let plain = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '=' | ',' | '-' | ':' | '.' | '_' -> true
    | _ -> false
  in
  if String.for_all plain s then s else Filename.quote s

let pp_counterexample o ppf ce =
  Format.fprintf ppf
    "@[<v 2>case %d: %s@,shrunk: %s@,repro:  fusecu_opt check%s --repro %s@,%a@]"
    ce.index (o.to_spec ce.original) (o.to_spec ce.shrunk)
    (if o.flag = "" then "" else " " ^ o.flag)
    (shell_word (o.to_spec ce.shrunk))
    (Format.pp_print_list pp_failure)
    ce.failures

let pp_report o ppf r =
  let n = List.length r.counterexamples in
  Format.fprintf ppf "@[<v>%s: %d cases, %d checks, " o.name r.cases r.checks;
  List.iter (fun (stat, v) -> Format.fprintf ppf "%d %s, " v stat) r.sums;
  Format.fprintf ppf "%d divergence%s" n (if n = 1 then "" else "s");
  List.iter
    (fun (stat, t) -> Format.fprintf ppf "@,@[<hov 2>%s:@ %a@]" stat pp_tally t)
    r.tallies;
  List.iter
    (fun ce -> Format.fprintf ppf "@,%a" (pp_counterexample o) ce)
    r.counterexamples;
  Format.fprintf ppf "@]"
