(* Myers' bit-vector edit distance (Myers 1999), blocked as in edlib: the
   pattern is cut into blocks of [w] rows, each column of the DP is one
   machine word per block, and blocks talk only through a horizontal
   delta in {-1, 0, +1} at their boundary row, so no carry crosses a
   block. OCaml's [int] arithmetic wraps at [w] bits, which is exactly the
   block width, so no masking is needed. *)

let w = Sys.int_size

let levenshtein a b =
  (* The shorter string is the pattern: one word per [w] of its bytes. *)
  let p, t = if String.length a <= String.length b then (a, b) else (b, a) in
  let m = String.length p and n = String.length t in
  if m = 0 then n
  else begin
    let nb = (m + w - 1) / w in
    (* Bytes of the pattern get dense rows 1..sigma of the match-mask
       table; row 0 (all zero) serves every byte the pattern lacks. *)
    let row = Array.make 256 0 in
    let sigma = ref 0 in
    String.iter
      (fun c ->
        let k = Char.code c in
        if row.(k) = 0 then begin
          incr sigma;
          row.(k) <- !sigma
        end)
      p;
    let peq = Array.make ((!sigma + 1) * nb) 0 in
    String.iteri
      (fun i c ->
        let r = (row.(Char.code c) * nb) + (i / w) in
        peq.(r) <- peq.(r) lor (1 lsl (i mod w)))
      p;
    (* Column 0: D(i, 0) = i, every vertical delta +1. *)
    let pv = Array.make nb (-1) and mv = Array.make nb 0 in
    let last = nb - 1 and bit = (m - 1) mod w in
    let score = ref m in
    for j = 0 to n - 1 do
      let eqs = row.(Char.code (String.unsafe_get t j)) * nb in
      (* Row 0: D(0, j) = j, so the delta entering the first block is +1. *)
      let hin = ref 1 in
      for k = 0 to last do
        let pvk = pv.(k) and mvk = mv.(k) in
        let eq = peq.(eqs + k) in
        let hpos = if !hin > 0 then 1 else 0
        and hneg = if !hin < 0 then 1 else 0 in
        let xv = eq lor mvk in
        let eq = eq lor hneg in
        let xh = (((eq land pvk) + pvk) lxor pvk) lor eq in
        let ph = mvk lor lnot (xh lor pvk) in
        let mh = pvk land xh in
        if k = last then
          score := !score + ((ph lsr bit) land 1) - ((mh lsr bit) land 1)
        else hin := (ph lsr (w - 1)) - (mh lsr (w - 1));
        let ph = (ph lsl 1) lor hpos and mh = (mh lsl 1) lor hneg in
        pv.(k) <- mh lor lnot (xv lor ph);
        mv.(k) <- ph land xv
      done
    done;
    !score
  end

let levenshtein_normalized a b =
  let m = max (String.length a) (String.length b) in
  if m = 0 then 0.0 else float_of_int (levenshtein a b) /. float_of_int m
