let bits_for_id ~n =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  max 1 (go 0 n)

let bits_int v =
  if v < 0 then invalid_arg "Message.bits_int: negative";
  bits_for_id ~n:v

let bits_list f l = List.fold_left (fun acc x -> acc + f x) 0 l
let bits_option f = function None -> 1 | Some x -> 1 + f x
