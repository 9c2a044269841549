open Fusecu_tensor
open Fusecu_loopnest

type params = {
  population : int;
  generations : int;
  mutation_rate : float;
  tournament : int;
  seed : int;
}

let default_params =
  { population = 48; generations = 60; mutation_rate = 0.25; tournament = 3;
    seed = 42 }

(* A genome indexes into per-dimension tile lattices plus the loop-order
   list; infeasible individuals (footprint over capacity) are penalized
   rather than repaired. *)
type genome = { im : int; ik : int; il : int; iorder : int }

(* The GA itself, on a fixed orientation. *)
let search_oriented ~params ~lattice (op : Matmul.t) buf =
  let arrs = Stochastic.arrays lattice op in
  let { Stochastic.ms; ks; ls; orders } = arrs in
  let rng = Random.State.make [| params.seed; op.m; op.k; op.l |] in
  let random_genome () =
    { im = Random.State.int rng (Array.length ms);
      ik = Random.State.int rng (Array.length ks);
      il = Random.State.int rng (Array.length ls);
      iorder = Random.State.int rng (Array.length orders) }
  in
  let schedule_of g =
    Stochastic.schedule_of arrs op ~im:g.im ~ik:g.ik ~il:g.il ~iorder:g.iorder
  in
  let tally = Stochastic.tally () in
  let capacity = Buffer.elements buf in
  (* Lower is better; infeasible genomes are ranked by how far over
     capacity they are, always worse than any feasible genome. *)
  let fitness g =
    Stochastic.tick tally;
    let s = schedule_of g in
    let fp = Schedule.footprint s in
    if fp > capacity then (float_of_int (fp - capacity) *. 1e12, s, None)
    else begin
      let cost = Cost.eval op s in
      (float_of_int cost.Cost.total, s, Some cost)
    end
  in
  let pop = Array.init params.population (fun _ -> random_genome ()) in
  let scores = Array.map fitness pop in
  let consider i =
    match scores.(i) with
    | _, s, Some cost -> Stochastic.note tally (s, cost) cost.Cost.total
    | _, _, None -> ()
  in
  Array.iteri (fun i _ -> consider i) pop;
  let tournament () =
    let pick () = Random.State.int rng params.population in
    let rec loop best n =
      if n = 0 then best
      else begin
        let c = pick () in
        let fb, _, _ = scores.(best) and fc, _, _ = scores.(c) in
        loop (if fc < fb then c else best) (n - 1)
      end
    in
    pop.(loop (pick ()) (params.tournament - 1))
  in
  let crossover a b =
    let take x y = if Random.State.bool rng then x else y in
    { im = take a.im b.im; ik = take a.ik b.ik; il = take a.il b.il;
      iorder = take a.iorder b.iorder }
  in
  let mutate g =
    let jiggle len i =
      if Random.State.float rng 1.0 < params.mutation_rate then
        Stochastic.nudge rng ~len i
      else i
    in
    { im = jiggle (Array.length ms) g.im;
      ik = jiggle (Array.length ks) g.ik;
      il = jiggle (Array.length ls) g.il;
      iorder = jiggle (Array.length orders) g.iorder }
  in
  for _gen = 1 to params.generations do
    let next =
      Array.init params.population (fun i ->
          if i = 0 then begin
            (* elitism: keep the best feasible genome seen in the pop *)
            let besti = ref 0 in
            Array.iteri
              (fun j _ ->
                let fj, _, _ = scores.(j) and fb, _, _ = scores.(!besti) in
                if fj < fb then besti := j)
              pop;
            pop.(!besti)
          end
          else mutate (crossover (tournament ()) (tournament ())))
    in
    Array.blit next 0 pop 0 params.population;
    Array.iteri (fun i g -> scores.(i) <- fitness g) pop;
    Array.iteri (fun i _ -> consider i) pop
  done;
  Option.map
    (fun ((schedule, cost), _) ->
      { Exhaustive.schedule; cost; explored = tally.Stochastic.evaluations })
    tally.Stochastic.best

let search ?(params = default_params) ?(lattice = Space.Divisors) op buf =
  (* Evolve on the canonical M<->L orientation so transposed problems
     get bit-identical results. *)
  Stochastic.canonical ~oriented:(search_oriented ~params ~lattice) op buf
