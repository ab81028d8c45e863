(** Serializers for {!Node.t}.

    [to_string]/[to_pretty_string] emit XML text that {!Parser} can read
    back. [to_tree_string] renders the paper's ASCII-tree instance
    notation ([target---department---employee---@name = ...]), in which
    EXPERIMENTS.md prints each figure's output. *)

(** Compact single-line XML. *)
val to_string : Node.t -> string

(** Indented XML, one element per line. *)
val to_pretty_string : ?indent:int -> Node.t -> string

(** The paper's ASCII-tree rendering. Attributes print as [@name = v]
    leaves, text-only elements as [tag = v] leaves; the first child
    continues on the parent's line, later children open new lines with
    [|---] / [`---] markers. *)
val to_tree_string : Node.t -> string
