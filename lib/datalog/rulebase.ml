type t = {
  by_head : (int, Clause.t list ref) Hashtbl.t;
  mutable order : Clause.t list; (* reversed insertion order *)
  mutable size : int;
}

let create () = { by_head = Hashtbl.create 32; order = []; size = 0 }

let add rb clause =
  let key = Symbol.id clause.Clause.head.Atom.pred in
  let cell =
    match Hashtbl.find_opt rb.by_head key with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add rb.by_head key r;
      r
  in
  cell := clause :: !cell;
  rb.order <- clause :: rb.order;
  rb.size <- rb.size + 1

let of_list clauses =
  let rb = create () in
  List.iter (add rb) clauses;
  rb

let to_list rb = List.rev rb.order
let size rb = rb.size

let rules_for rb pred =
  match Hashtbl.find_opt rb.by_head (Symbol.id pred) with
  | Some r -> List.rev !r
  | None -> []

let has_rules rb pred = Hashtbl.mem rb.by_head (Symbol.id pred)

let resolving rb ~gen goal =
  List.filter_map
    (fun clause ->
      let clause = Clause.rename gen clause in
      match Subst.unify_atoms clause.Clause.head goal Subst.empty with
      | Some s -> Some (clause, s)
      | None -> None)
    (rules_for rb goal.Atom.pred)

let idb_preds rb =
  Hashtbl.fold
    (fun _ rules acc ->
      match !rules with
      | [] -> acc
      | c :: _ -> c.Clause.head.Atom.pred :: acc)
    rb.by_head []
  |> List.sort Symbol.compare

let body_preds rb =
  List.concat_map
    (fun c -> List.map (fun l -> (Clause.lit_atom l).Atom.pred) c.Clause.body)
    (to_list rb)

let edb_preds rb =
  let idb = idb_preds rb in
  let is_idb p = List.exists (Symbol.equal p) idb in
  body_preds rb
  |> List.filter (fun p -> not (is_idb p))
  |> List.sort_uniq Symbol.compare

(* Dependency edges between IDB predicates: head -> body predicate, tagged
   with the polarity of the body occurrence. *)
let edges rb =
  List.concat_map
    (fun c ->
      List.filter_map
        (fun lit ->
          let target = (Clause.lit_atom lit).Atom.pred in
          if Hashtbl.mem rb.by_head (Symbol.id target) then
            Some
              (c.Clause.head.Atom.pred, target, Clause.lit_is_positive lit)
          else None)
        c.Clause.body)
    (to_list rb)

(* Tarjan's strongly connected components over the IDB dependency graph,
   returned in reverse topological order (callees before callers). *)
let sccs rb =
  let preds = idb_preds rb in
  let succ =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun (src, dst, _) ->
        let key = Symbol.id src in
        let old = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
        Hashtbl.replace tbl key (dst :: old))
      (edges rb);
    fun p -> Option.value ~default:[] (Hashtbl.find_opt tbl (Symbol.id p))
  in
  let index = Hashtbl.create 32 in
  let lowlink = Hashtbl.create 32 in
  let on_stack = Hashtbl.create 32 in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    let vid = Symbol.id v in
    Hashtbl.replace index vid !counter;
    Hashtbl.replace lowlink vid !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack vid ();
    List.iter
      (fun w ->
        let wid = Symbol.id w in
        if not (Hashtbl.mem index wid) then begin
          strongconnect w;
          Hashtbl.replace lowlink vid
            (min (Hashtbl.find lowlink vid) (Hashtbl.find lowlink wid))
        end
        else if Hashtbl.mem on_stack wid then
          Hashtbl.replace lowlink vid
            (min (Hashtbl.find lowlink vid) (Hashtbl.find index wid)))
      (succ v);
    if Hashtbl.find lowlink vid = Hashtbl.find index vid then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack (Symbol.id w);
          if Symbol.equal w v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  List.iter
    (fun p -> if not (Hashtbl.mem index (Symbol.id p)) then strongconnect p)
    preds;
  List.rev !components

let self_loop rb p =
  List.exists (fun (src, dst, _) -> Symbol.equal src p && Symbol.equal dst p)
    (edges rb)

let is_recursive rb =
  List.exists
    (fun comp ->
      match comp with
      | [] -> false
      | [ p ] -> self_loop rb p
      | _ :: _ :: _ -> true)
    (sccs rb)

let pred_recursive rb pred =
  List.exists
    (fun comp ->
      List.exists (Symbol.equal pred) comp
      && (List.length comp > 1 || self_loop rb pred))
    (sccs rb)

let stratify rb =
  let comps = sccs rb in
  (* A program is stratifiable iff no negative edge stays inside an SCC. *)
  let in_same_comp a b =
    List.exists
      (fun comp ->
        List.exists (Symbol.equal a) comp && List.exists (Symbol.equal b) comp)
      comps
  in
  let bad =
    List.filter_map
      (fun (src, dst, positive) ->
        if (not positive) && in_same_comp src dst then Some src else None)
      (edges rb)
  in
  if bad <> [] then Error (List.sort_uniq Symbol.compare bad)
  else begin
    (* Assign each SCC the stratum max(pos-dep strata, neg-dep strata + 1).
       [sccs] is in reverse topological order, so dependencies come first. *)
    let stratum_of = Hashtbl.create 32 in
    let comp_of p =
      List.find (fun comp -> List.exists (Symbol.equal p) comp) comps
    in
    List.iter
      (fun comp ->
        let level = ref 0 in
        List.iter
          (fun (src, dst, positive) ->
            if
              List.exists (Symbol.equal src) comp
              && not (in_same_comp src dst)
            then begin
              let dep =
                match Hashtbl.find_opt stratum_of (List.hd (comp_of dst)) with
                | Some l -> l
                | None -> 0
              in
              let need = if positive then dep else dep + 1 in
              if need > !level then level := need
            end)
          (edges rb);
        Hashtbl.replace stratum_of (List.hd comp) !level)
      comps;
    let max_level =
      Hashtbl.fold (fun _ l acc -> max l acc) stratum_of 0
    in
    let strata =
      List.init (max_level + 1) (fun level ->
          List.concat_map
            (fun comp ->
              if Hashtbl.find_opt stratum_of (List.hd comp) = Some level then
                comp
              else [])
            comps)
    in
    Ok (List.map (List.sort Symbol.compare) strata)
  end

let check_safe rb =
  let bad =
    List.filter_map
      (fun c ->
        match Clause.check_safe c with
        | Ok () -> None
        | Error vars -> Some (c, vars))
      (to_list rb)
  in
  if bad = [] then Ok () else Error bad

let pp ppf rb =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_cut ppf ())
    Clause.pp ppf (to_list rb)
