let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let s = sorted xs in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

type tail = { value : float; samples : int; beyond : int }

let min_beyond = 10

(* ceil (p * n) without letting 0.9 *. 100. = 90.000000000000014 round
   up to rank 91 *)
let nearest_rank p n =
  let x = p *. float_of_int n in
  let r = Float.round x in
  max 1 (int_of_float (if Float.abs (x -. r) < 1e-9 then r else Float.ceil x))

let percentile xs p =
  if not (p > 0. && p < 1.) then invalid_arg "Stats.percentile: need 0 < p < 1";
  let n = Array.length xs in
  if n = 0 then None
  else
    let rank = nearest_rank p n in
    let beyond = n - rank in
    if beyond < min_beyond then None
    else Some { value = (sorted xs).(rank - 1); samples = n; beyond }

let union_length ~lo ~hi spans =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      spans
  in
  let by_start = List.sort (fun (a, _) (b, _) -> Float.compare a b) clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0., None) by_start
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let coverage ~lo ~hi spans =
  if hi <= lo then 0. else union_length ~lo ~hi spans /. (hi -. lo)

let log_hist_quantile ~log10_lo ~log10_hi ~underflow ~overflow ~counts q =
  let bins = Array.length counts in
  let total = Array.fold_left ( + ) (underflow + overflow) counts in
  if total = 0 || bins = 0 then None
  else begin
    let target = q *. float_of_int total in
    let width = (log10_hi -. log10_lo) /. float_of_int bins in
    if target <= float_of_int underflow then Some (10. ** log10_lo)
    else begin
      let rec walk b cum =
        if b = bins then Some (10. ** log10_hi)
        else
          let c = counts.(b) in
          let cum' = cum +. float_of_int c in
          if c > 0 && target <= cum' then
            let frac = (target -. cum) /. float_of_int c in
            Some (10. ** (log10_lo +. ((float_of_int b +. frac) *. width)))
          else walk (b + 1) cum'
      in
      walk 0 (float_of_int underflow)
    end
  end
