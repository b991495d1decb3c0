module Json = Proxim_lint.Json

type span = {
  id : int;
  parent : int option;
  name : string;
  start : float;
  stop : float;
}

type t = {
  mutable next_id : int;
  mutable open_ : int list;
  mutable done_ : span list;
}

let create () = { next_id = 0; open_ = []; done_ = [] }

let with_ t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ with [] -> None | p :: _ -> Some p in
  t.open_ <- id :: t.open_;
  let start = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let stop = Unix.gettimeofday () in
      t.open_ <- List.tl t.open_;
      t.done_ <- { id; parent; name; start; stop } :: t.done_)
    f

let spans t = List.sort (fun a b -> Int.compare a.id b.id) t.done_

let durations t name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
    (spans t)

let total t name = List.fold_left ( +. ) 0. (durations t name)

let top_level t =
  List.filter_map
    (fun s -> if s.parent = None then Some (s.start, s.stop) else None)
    (spans t)

let to_json t =
  let all = spans t in
  let t0 = match all with [] -> 0. | s :: _ -> s.start in
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Number (float_of_int s.id));
             ( "parent",
               match s.parent with
               | None -> Json.Null
               | Some p -> Json.Number (float_of_int p) );
             ("name", Json.String s.name);
             ("start_s", Json.Number (s.start -. t0));
             ("dur_s", Json.Number (s.stop -. s.start));
           ])
       all)
