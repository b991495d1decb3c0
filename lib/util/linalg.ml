type mat = float array array
type vec = float array

exception Singular

let pivot_floor = 1e-300

let make_mat n = Array.make_matrix n n 0.

let copy_mat a = Array.map Array.copy a

let mat_vec a x =
  let n = Array.length a in
  let y = Array.make n 0. in
  for i = 0 to n - 1 do
    let row = a.(i) in
    let acc = ref 0. in
    for j = 0 to Array.length row - 1 do
      acc := !acc +. (row.(j) *. x.(j))
    done;
    y.(i) <- !acc
  done;
  y

let norm_inf v =
  let m = ref 0. in
  for i = 0 to Array.length v - 1 do
    m := Float.max !m (Float.abs v.(i))
  done;
  !m

let residual_norm a x b =
  let ax = mat_vec a x in
  let n = Array.length b in
  let m = ref 0. in
  for i = 0 to n - 1 do
    m := Float.max !m (Float.abs (ax.(i) -. b.(i)))
  done;
  !m

(* Classic LU with partial pivoting: factorizes [a] in place, recording
   row exchanges in [perm], then solves into [scratch] and copies the
   solution over [b].  Allocates nothing. *)
let solve_in_place a b ~perm ~scratch =
  let n = Array.length a in
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  for k = 0 to n - 1 do
    (* pivot search *)
    let pivot_row = ref k in
    let pivot_val = ref (Float.abs a.(k).(k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs a.(i).(k) in
      if v > !pivot_val then begin
        pivot_val := v;
        pivot_row := i
      end
    done;
    if !pivot_val < pivot_floor then raise Singular;
    if !pivot_row <> k then begin
      let tmp = a.(k) in
      a.(k) <- a.(!pivot_row);
      a.(!pivot_row) <- tmp;
      let tp = perm.(k) in
      perm.(k) <- perm.(!pivot_row);
      perm.(!pivot_row) <- tp
    end;
    let akk = a.(k).(k) in
    for i = k + 1 to n - 1 do
      let factor = a.(i).(k) /. akk in
      a.(i).(k) <- factor;
      if factor <> 0. then
        for j = k + 1 to n - 1 do
          a.(i).(j) <- a.(i).(j) -. (factor *. a.(k).(j))
        done
    done
  done;
  let x = scratch in
  (* forward: Ly = Pb *)
  for i = 0 to n - 1 do
    let acc = ref b.(perm.(i)) in
    for j = 0 to i - 1 do
      acc := !acc -. (a.(i).(j) *. x.(j))
    done;
    x.(i) <- !acc
  done;
  (* backward: Ux = y *)
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (a.(i).(j) *. x.(j))
    done;
    x.(i) <- !acc /. a.(i).(i)
  done;
  Array.blit x 0 b 0 n

let lu_solve a b =
  let n = Array.length b in
  let x = Array.copy b in
  solve_in_place (copy_mat a) x ~perm:(Array.make n 0)
    ~scratch:(Array.make n 0.);
  x
