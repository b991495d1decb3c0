(* K-worst path enumeration over an analyzed timing state.

   Per-net top-K lists are merged in topological order: the paths to a
   driven net extend the paths to each candidate input net by that arc's
   delay contribution [would_be - arrival(input)].

   Rank 1 is forced to the winner chain: engines store the actual output
   arrival as the winning pin's [would_be], so extending the winner
   input's rank-1 path by that arc telescopes to exactly the reported
   arrival.  The forcing matters because "latest estimate" and "timing
   setting" disagree under proximity: for assisting inputs the composed
   response tracks the EARLIEST would-be crossing, so the critical
   (timing-setting) path can carry a smaller number than a losing pin's
   single-input estimate.  Ranks 2..K are the alternatives, latest
   estimate first. *)

type step = { net : int; via_pin : int }

type path = { p_arrival : float; p_steps : step list }

(* worst (latest) first; bit-equal scores fall back to the step lists so
   ties are deterministic whatever order the merge produced them in *)
let compare_paths a b =
  match compare b.p_arrival a.p_arrival with
  | 0 -> compare a.p_steps b.p_steps
  | c -> c

let k_worst timing ~po ~k =
  if k < 1 then invalid_arg "Paths.k_worst: k must be >= 1";
  let g = Timing.graph timing in
  let memo = Array.make (Graph.net_count g) [] in
  let seed net =
    if Graph.driver_id g ~net < 0 then
      match Timing.arrival timing ~net with
      | Some a ->
        memo.(net) <-
          [ { p_arrival = a.Timing.time; p_steps = [ { net; via_pin = -1 } ] } ]
      | None -> ()
  in
  (* a net's list depends only on its fanin cone, so the sweep visits the
     cone of [po]'s driver and seeds only the sources that cone reads *)
  let cone =
    match Graph.driver g ~net:po with
    | None -> Array.make (Graph.cell_count g) false
    | Some d -> Graph.fanin_cone g ~cells:[ d ]
  in
  let merge cell (v : Timing.verdict) =
    let out = Graph.cell_output g cell in
    let extend (c : Timing.candidate) ps =
      match Timing.arrival timing ~net:c.Timing.from_net with
      | None -> []
      | Some a_in ->
        let d = c.Timing.would_be -. a_in.Timing.time in
        List.map
          (fun p ->
            {
              p_arrival = p.p_arrival +. d;
              p_steps =
                { net = out; via_pin = c.Timing.pin } :: p.p_steps;
            })
          ps
    in
    let head, alternatives =
      Array.fold_left
        (fun (head, alts) (c : Timing.candidate) ->
          match memo.(c.Timing.from_net) with
          | [] -> (head, alts)
          | best :: others when c.Timing.pin = v.Timing.winner ->
            (* the winner's extension of the winner input's own
               rank-1 path carries the exact arrival: force it to
               rank 1, demote that input's lower ranks *)
            (extend c [ best ], extend c others @ alts)
          | ps -> (head, extend c ps @ alts))
        ([], []) v.Timing.candidates
    in
    let ranked = head @ List.sort compare_paths alternatives in
    memo.(out) <- List.filteri (fun i _ -> i < k) ranked
  in
  seed po;
  Array.iter
    (fun cell ->
      if cone.(cell) then begin
        Array.iter seed (Graph.cell_inputs g cell);
        Option.iter (merge cell) (Timing.verdict timing ~cell)
      end)
    (Graph.topological g);
  memo.(po)

let nets_of_path g p = List.map (fun s -> Graph.net_name g s.net) p.p_steps
