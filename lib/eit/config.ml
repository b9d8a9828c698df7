type t = Opcode.t option

let effective l = List.filter_map Fun.id l

let count_switches ops =
  let rec go acc = function
    | a :: (b :: _ as rest) ->
      go (if Opcode.config_equal a b then acc else acc + 1) rest
    | [ _ ] | [] -> acc
  in
  go 0 ops

let count_reconfigs l = count_switches (effective l)

let count_reconfigs_cyclic l =
  match effective l with
  | [] | [ _ ] -> 0
  | first :: _ as ops ->
    let last = List.nth ops (List.length ops - 1) in
    count_switches ops + if Opcode.config_equal last first then 0 else 1
