type t = { lx : float; ly : float; lz : float }

let make ~lx ~ly ~lz =
  if lx <= 0. || ly <= 0. || lz <= 0. then
    invalid_arg "Pbc.make: edges must be positive";
  { lx; ly; lz }

let cubic l = make ~lx:l ~ly:l ~lz:l
let volume b = b.lx *. b.ly *. b.lz
let scale b f = make ~lx:(b.lx *. f) ~ly:(b.ly *. f) ~lz:(b.lz *. f)

let wrap1 l x =
  let x = Float.rem x l in
  if x < 0. then x +. l else x

let wrap b (v : Vec3.t) =
  Vec3.make (wrap1 b.lx v.x) (wrap1 b.ly v.y) (wrap1 b.lz v.z)

(* [d -. l *. Float.round (d /. l)] without the [caml_round] call, bit for
   bit for every [d] and every [l > 0]. [Float.round] rounds half away from
   zero, so it is +-0 on (-0.5, 0.5), 1 on [0.5, 1.5) and -1 on
   (-1.5, -0.5]; [l *. 1.] is [l] exactly and [d -. -.l] is [d +. l]
   exactly. [d -. l *. +-0.] is [d] except that it turns [-0.] into [+0.],
   which is what [d +. 0.] does. Everything else (|q| >= 1.5, NaN, +-inf)
   takes the formula itself. Comparing [d] with [l / 2] instead of dividing
   differs next to the ties and would change which pairs are in range. *)
let[@inline] mi1 l d =
  let q = d /. l in
  if q > -0.5 && q < 0.5 then d +. 0.
  else if q >= 0.5 && q < 1.5 then d -. l
  else if q <= -0.5 && q > -1.5 then d +. l
  else d -. (l *. Float.round q)

let min_image b (a : Vec3.t) (c : Vec3.t) =
  Vec3.make (mi1 b.lx (a.x -. c.x)) (mi1 b.ly (a.y -. c.y))
    (mi1 b.lz (a.z -. c.z))

let dist2 b a c =
  let d = min_image b a c in
  Vec3.norm2 d

let dist b a c = sqrt (dist2 b a c)
let min_edge b = Float.min b.lx (Float.min b.ly b.lz)

let to_fractional b (v : Vec3.t) =
  let w = wrap b v in
  Vec3.make (w.x /. b.lx) (w.y /. b.ly) (w.z /. b.lz)

let of_fractional b (f : Vec3.t) =
  Vec3.make (f.x *. b.lx) (f.y *. b.ly) (f.z *. b.lz)

let pp ppf b = Format.fprintf ppf "box(%g x %g x %g)" b.lx b.ly b.lz
