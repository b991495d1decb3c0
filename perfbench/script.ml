module Sta = Proxim_sta.Sta
module Measure = Proxim_measure.Measure
module Serve = Proxim_serve.Serve
module Json = Proxim_lint.Json

type kind = Eco | Report | Paths | Slacks

type request = { kind : kind; ecos : Sta.eco list; json : string }

type t = {
  rng : Random.State.t;
  pis : string array;
  cells : string array;
  po : string;
  mutable pos : int;
}

let create ~seed ~session ~pis ~cells ~po =
  { rng = Random.State.make [| seed; session |]; pis; cells; po; pos = 0 }

let cycle = 100

let kind_name = function
  | Eco -> "eco"
  | Report -> "report"
  | Paths -> "paths"
  | Slacks -> "slacks"

let initial_arrival = { Sta.time = 0.; slew = 200e-12; edge = Measure.Fall }
let slack_required = 5e-9

let pick rng a = a.(Random.State.int rng (Array.length a))

let set_pi t =
  let net = pick t.rng t.pis in
  let time = Random.State.float t.rng 400e-12 in
  let slew = 100e-12 +. Random.State.float t.rng 400e-12 in
  Sta.Set_pi (net, Some { Sta.time; slew; edge = Measure.Fall })

let edit t =
  if Random.State.int t.rng 4 = 0 then Sta.Touch_cell (pick t.rng t.cells)
  else set_pi t

let eco_json = function
  | Sta.Set_pi (net, a) ->
    Json.Obj
      [
        ("kind", Json.String "set_pi");
        ("net", Json.String net);
        ( "arrival",
          match a with None -> Json.Null | Some a -> Serve.arrival_to_json a );
      ]
  | Sta.Touch_cell c ->
    Json.Obj [ ("kind", Json.String "touch_cell"); ("cell", Json.String c) ]

let request kind ecos fields =
  { kind; ecos; json = Json.to_string (Json.Obj fields) }

(* Request kinds follow a fixed 100-request cycle, so every seed and
   every cycle carries the same mix and only the edits' targets and
   values are drawn: per 10 requests, a report at slot 5, paths at slot
   9 (slacks instead on the cycle's last slot), batched ECOs at slots 2
   and 7, single-edit ECOs elsewhere. *)
let next t =
  let i = t.pos in
  t.pos <- i + 1;
  match i mod 10 with
  | 5 -> request Report [] [ ("op", Json.String "report") ]
  | 9 when i mod cycle = cycle - 1 ->
    request Slacks []
      [ ("op", Json.String "slacks"); ("required", Json.Number slack_required) ]
  | 9 ->
    request Paths []
      [
        ("op", Json.String "paths"); ("po", Json.String t.po); ("k", Json.Number 5.);
      ]
  | slot ->
    let ecos =
      if slot = 2 || slot = 7 then begin
        let acc = ref [] in
        for _ = 1 to 8 do
          acc := edit t :: !acc
        done;
        List.rev !acc
      end
      else [ set_pi t ]
    in
    request Eco ecos
      [
        ("op", Json.String "eco"); ("ecos", Json.List (List.map eco_json ecos));
      ]
