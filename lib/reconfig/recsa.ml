open Sim

type echo_view = { e_part : Pid.Set.t; e_prp : Notification.t; e_all : bool }

type message = {
  m_fd : Pid.Set.t;
  m_part : Pid.Set.t;
  m_config : Config_value.t;
  m_prp : Notification.t;
  m_all : bool;
  m_echo : echo_view option;
}

type t = {
  sa_self : Pid.t;
  mutable sa_config : Config_value.t;
  mutable sa_prp : Notification.t;
  mutable sa_all : bool;
  mutable sa_allseen : Pid.Set.t;
  mutable peers : message Pid.Map.t;
      (* each trusted peer's latest message, descriptors interned *)
  mutable resets : int;
  mutable installs : int;
}

let create ~self ~participant ?initial_config () =
  let config =
    if not participant then Config_value.Not_participant
    else
      match initial_config with
      | Some s -> Config_value.of_set s
      | None -> Config_value.Reset
  in
  {
    sa_self = self;
    sa_config = config;
    sa_prp = Notification.default;
    sa_all = false;
    sa_allseen = Pid.Set.empty;
    peers = Pid.Map.empty;
    resets = 0;
    installs = 0;
  }

let self t = t.sa_self
let config t = t.sa_config
let prp t = t.sa_prp
let is_participant t = not (Config_value.is_not_participant t.sa_config)
let reset_count t = t.resets
let install_count t = t.installs

(* FD[i].part = {pj in FD[i] : config[j] <> #}; our own entry counts iff we
   are a participant. *)
let participants t ~trusted =
  (* interned: the result is compared against gossiped [part] descriptors on
     every message, and interning makes those comparisons pointer-equality *)
  Intern.pid_set
    (Pid.Set.filter
       (fun p ->
         if Pid.equal p t.sa_self then is_participant t
         else
           match Pid.Map.find_opt p t.peers with
           | Some pv -> not (Config_value.is_not_participant pv.m_config)
           | None -> false)
       trusted)

(* Every (non-#) configuration value visible locally: own + received from
   trusted processors. *)
let visible_configs t ~trusted =
  let received =
    Pid.Map.fold
      (fun p pv acc -> if Pid.Set.mem p trusted then pv.m_config :: acc else acc)
      t.peers []
  in
  t.sa_config :: received

let distinct_sets values =
  List.fold_left
    (fun acc v ->
      match v with
      | Config_value.Set s ->
        if List.exists (Intern.set_equal s) acc then acc else s :: acc
      | Config_value.Not_participant | Config_value.Reset -> acc)
    [] values

let exists_reset values = List.exists Config_value.is_reset values

(* choose({config[k]} \ {#}): deterministically prefer the lexicographically
   smallest proper set; fall back to bot when only resets (or nothing) are
   visible. *)
let chs_config t ~trusted =
  let values = visible_configs t ~trusted in
  match distinct_sets values with
  | [] -> Config_value.Reset
  | sets ->
    let smallest =
      List.fold_left
        (fun acc s ->
          match acc with
          | None -> Some s
          | Some best -> if Pid.compare_sets_lex s best < 0 then Some s else acc)
        None sets
    in
    (match smallest with Some s -> Config_value.Set s | None -> Config_value.Reset)

let peer_views t ~part =
  Pid.Set.fold
    (fun p acc ->
      if Pid.equal p t.sa_self then acc
      else
        match Pid.Map.find_opt p t.peers with
        | Some pv -> (p, pv) :: acc
        | None -> acc)
    part []

(* same(k): pk's most recently received (part, prp) match ours. *)
let same t ~part pv =
  Intern.set_equal pv.m_part part && Notification.equal pv.m_prp t.sa_prp

(* echoNoAll: pk echoed our (part, prp). *)
let echo_no_all t ~part pv =
  match pv.m_echo with
  | None -> false
  | Some e -> Intern.set_equal e.e_part part && Notification.equal e.e_prp t.sa_prp

(* echo(): pk echoed our full (part, prp, all) triple. *)
let echo_full t ~part pv =
  match pv.m_echo with
  | None -> false
  | Some e ->
    Intern.set_equal e.e_part part
    && Notification.equal e.e_prp t.sa_prp
    && Bool.equal e.e_all t.sa_all

let no_reco t ~trusted =
  let part = participants t ~trusted in
  let views = peer_views t ~part in
  (* all participants have reported (they are in part only if their config
     was received, so views covers part \ {self}) *)
  let recognized = List.for_all (fun (_, pv) -> Pid.Set.mem t.sa_self pv.m_fd) views in
  let values = visible_configs t ~trusted in
  let no_conflict = List.length (distinct_sets values) <= 1 in
  let no_reset = not (exists_reset values) in
  let parts_stable =
    List.for_all (fun (_, pv) -> Intern.set_equal pv.m_part part) views
    (* peers can only echo our values if we broadcast, i.e. participate *)
    && ((not (is_participant t))
       || List.for_all
            (fun (_, pv) ->
              match pv.m_echo with
              | Some e -> Intern.set_equal e.e_part part
              | None -> false)
            views)
  in
  let no_notification =
    Notification.is_default t.sa_prp
    && List.for_all (fun (_, pv) -> Notification.is_default pv.m_prp) views
  in
  recognized && no_conflict && no_reset && parts_stable && no_notification

let get_config t ~trusted =
  if no_reco t ~trusted then chs_config t ~trusted else t.sa_config

(* configSet(val): wrapper for the whole local config array; also clears all
   local notifications (line 21 of the pseudocode). *)
let config_set t value =
  let value = Config_value.intern value in
  t.sa_config <- value;
  t.sa_prp <- Notification.default;
  t.sa_all <- false;
  t.sa_allseen <- Pid.Set.empty;
  t.peers <-
    Pid.Map.map
      (fun pv -> { pv with m_config = value; m_prp = Notification.default })
      t.peers

let start_reset t reason events =
  if not (Config_value.is_reset t.sa_config) then begin
    t.resets <- t.resets + 1;
    events := Event.Reset reason :: !events
  end;
  config_set t Config_value.Reset

(* Entering a notification state: installing happens on entry to phase 2,
   whether by own increment or by adopting a phase-2 notification. *)
let advance_to t (n : Notification.t) events =
  let n = Notification.intern n in
  (match (n.Notification.phase, n.Notification.set) with
  | Notification.P2, Some s ->
    if not (Config_value.equal t.sa_config (Config_value.Set s)) then begin
      t.installs <- t.installs + 1;
      events := Event.Install s :: !events
    end;
    t.sa_config <- Config_value.of_set s
  | _ -> ());
  t.sa_prp <- n;
  t.sa_all <- false;
  t.sa_allseen <- Pid.Set.empty

let finish_replacement t events =
  events := Event.Phase0 :: !events;
  t.sa_prp <- Notification.default;
  t.sa_all <- false;
  t.sa_allseen <- Pid.Set.empty

(* every participant but us has reported: [views] covers [part \ {self}] *)
let complete t ~part views =
  List.length views
  = Pid.Set.cardinal part - if Pid.Set.mem t.sa_self part then 1 else 0

(* Definition 3.1 type-3: two phase-2 notifications with distinct sets *)
let phase2_conflict t views =
  let collect acc (n : Notification.t) =
    match (n.phase, n.set) with
    | Notification.P2, Some s ->
      if List.exists (Intern.set_equal s) acc then acc else s :: acc
    | _ -> acc
  in
  let sets = List.fold_left (fun acc (_, pv) -> collect acc pv.m_prp) (collect [] t.sa_prp) views in
  List.length sets > 1

(* Definition 3.1 type-4: a stable view (every participant reports our
   trusted set and our part) but the configuration has no live participant *)
let dead_config t ~trusted ~part views =
  match t.sa_config with
  | Config_value.Set s ->
    Pid.Set.cardinal part > 1
    && complete t ~part views
    && List.for_all
         (fun (_, pv) ->
           Intern.set_equal pv.m_fd trusted && Intern.set_equal pv.m_part part)
         views
    && Pid.Set.disjoint s part
  | Config_value.Not_participant | Config_value.Reset -> false

(* Stale-information tests of Definition 3.1 that are valid in every state
   (configuration disagreement, by contrast, is normal while a replacement
   is mid-flight, so the conflict test lives in the no-notification branch,
   as in line 26 of the pseudocode). True iff a reset started. *)
let stale_check_always t views events =
  (* type-2 (own): an empty configuration set is never legal *)
  let own_empty =
    match t.sa_config with
    | Config_value.Set s -> Pid.Set.is_empty s
    | Config_value.Not_participant | Config_value.Reset -> false
  in
  if own_empty then begin
    events := Event.Stale 2 :: !events;
    start_reset t "empty config" events;
    true
  end
  else if phase2_conflict t views then begin
    events := Event.Stale 3 :: !events;
    start_reset t "conflicting phase-2 notifications" events;
    true
  end
  else false

(* Stale-information tests that only apply outside replacements. *)
let stale_check_quiet t ~trusted ~part views events =
  let values = visible_configs t ~trusted in
  if List.length (distinct_sets values) > 1 then begin
    events := Event.Stale 2 :: !events;
    start_reset t "config conflict" events
  end
  else if dead_config t ~trusted ~part views then begin
    events := Event.Stale 4 :: !events;
    start_reset t "config has no live participant" events
  end

let max_notification t ~part views =
  let own = if Pid.Set.mem t.sa_self part then [ t.sa_prp ] else [] in
  let received = List.map (fun (_, pv) -> pv.m_prp) views in
  Notification.max_of (own @ received)

(* Brute-force stabilization (line 26): during a reset, wait until every
   trusted processor reports the same failure-detector set, then adopt that
   set as the configuration. *)
let brute_force t ~trusted events =
  if Config_value.is_reset t.sa_config then begin
    let others = Pid.Set.remove t.sa_self trusted in
    let agreement =
      Pid.Set.for_all
        (fun p ->
          match Pid.Map.find_opt p t.peers with
          | Some pv -> Intern.set_equal pv.m_fd trusted
          | None -> false)
        others
    in
    if agreement then begin
      config_set t (Config_value.Set trusted);
      events := Event.Brute_force trusted :: !events
    end
  end

(* One unison step of the delicate-replacement automaton (line 28). *)
let delicate t ~part views max_ntf events =
  (* A lingering phase-2 notification whose set we already installed is the
     tail of a completed replacement, not a new one. *)
  let already_installed =
    Notification.is_default t.sa_prp
    && max_ntf.Notification.phase = Notification.P2
    &&
    match max_ntf.Notification.set with
    | Some s -> Config_value.equal t.sa_config (Config_value.Set s)
    | None -> false
  in
  if already_installed then ()
  else begin
  (* Converge on the lexicographically maximal notification. *)
  if Notification.compare t.sa_prp max_ntf < 0 then begin
    events := Event.Adopt max_ntf :: !events;
    advance_to t max_ntf events
  end;
  (* Follow a completed cycle: a peer already returned to phase 0 with our
     proposed set installed. *)
  (match (t.sa_prp.Notification.phase, t.sa_prp.Notification.set) with
  | (Notification.P1 | Notification.P2), Some s ->
    let completed =
      List.exists
        (fun (_, pv) ->
          Notification.is_default pv.m_prp
          && Config_value.equal pv.m_config (Config_value.Set s))
        views
    in
    if completed then begin
      if not (Config_value.equal t.sa_config (Config_value.Set s)) then begin
        t.installs <- t.installs + 1;
        events := Event.Install s :: !events
      end;
      t.sa_config <- Config_value.of_set s;
      finish_replacement t events
    end
  | _ -> ());
  if not (Notification.is_default t.sa_prp) then begin
    (* all[i] <- every participant reports and echoes our (part, prp) *)
    let complete_views = complete t ~part views in
    t.sa_all <-
      complete_views
      && List.for_all (fun (_, pv) -> echo_no_all t ~part pv && same t ~part pv) views;
    (* accumulate allSeen: peers that reported all[k] for our notification *)
    List.iter
      (fun (p, pv) ->
        if same t ~part pv && pv.m_all then t.sa_allseen <- Pid.Set.add p t.sa_allseen)
      views;
    let echo_ok = complete_views && List.for_all (fun (_, pv) -> echo_full t ~part pv) views in
    let allseen_ok =
      let seen = if t.sa_all then Pid.Set.add t.sa_self t.sa_allseen else t.sa_allseen in
      Pid.Set.subset part seen
    in
    if echo_ok && allseen_ok then begin
      match t.sa_prp.Notification.phase with
      | Notification.P1 ->
        (match t.sa_prp.Notification.set with
        | Some s ->
          events := Event.Phase2 s :: !events;
          advance_to t { Notification.phase = Notification.P2; set = Some s } events
        | None -> t.sa_prp <- Notification.default)
      | Notification.P2 -> finish_replacement t events
      | Notification.P0 -> t.sa_prp <- Notification.default
    end
  end
  end

let tick t ~trusted =
  let events = ref [] in
  (* line 25 prologue: clean state about processors we no longer trust *)
  t.peers <- Pid.Map.filter (fun p _ -> Pid.Set.mem p trusted) t.peers;
  (* type-1 cleaning: malformed notifications are normalized, never kept *)
  if Notification.malformed t.sa_prp then begin
    events := Event.Stale 1 :: !events;
    t.sa_prp <- Notification.default
  end;
  (* rebuilt only when needed: a fresh copy of this long-lived map every
     tick would all be promoted *)
  if Pid.Map.exists (fun _ pv -> Notification.malformed pv.m_prp) t.peers then
    t.peers <-
      Pid.Map.map
        (fun pv ->
          if Notification.malformed pv.m_prp then begin
            events := Event.Stale 1 :: !events;
            { pv with m_prp = Notification.default }
          end
          else pv)
        t.peers;
  (* a non-participant observing a reset joins it (brute force includes all
     active processors) *)
  (if Config_value.is_not_participant t.sa_config then
     let reset_visible =
       Pid.Map.exists
         (fun p pv -> Pid.Set.mem p trusted && Config_value.is_reset pv.m_config)
         t.peers
     in
     if reset_visible then begin
       t.sa_config <- Config_value.Reset;
       events := Event.Join_reset :: !events
     end);
  let part = participants t ~trusted in
  let views = peer_views t ~part in
  (* a reset rewrites the peers' configurations, and with them [part] *)
  let part, views =
    if stale_check_always t views events then
      let part = participants t ~trusted in
      (part, peer_views t ~part)
    else (part, views)
  in
  (match max_notification t ~part views with
  | None ->
    stale_check_quiet t ~trusted ~part views events;
    brute_force t ~trusted events
  | Some max_ntf -> if is_participant t then delicate t ~part views max_ntf events);
  List.rev !events

let broadcast t ~trusted =
  if not (is_participant t) then []
  else begin
    let part = participants t ~trusted in
    Pid.Set.fold
      (fun p acc ->
        if Pid.equal p t.sa_self then acc
        else
          let echo =
            match Pid.Map.find_opt p t.peers with
            | Some pv -> Some { e_part = pv.m_part; e_prp = pv.m_prp; e_all = pv.m_all }
            | None -> None
          in
          ( p,
            {
              m_fd = trusted;
              m_part = part;
              m_config = t.sa_config;
              m_prp = t.sa_prp;
              m_all = t.sa_all;
              m_echo = echo;
            } )
          :: acc)
      trusted []
  end

let receive t ~from m =
  (* Intern every descriptor as it comes off the wire: this is the single
     choke point that makes all downstream Definition 3.1 comparisons
     pointer-equality in the steady state. *)
  let prp = if Notification.malformed m.m_prp then Notification.default else m.m_prp in
  let echo =
    match m.m_echo with
    | None -> None
    | Some e ->
      Some
        {
          e_part = Intern.pid_set e.e_part;
          e_prp = Notification.intern e.e_prp;
          e_all = e.e_all;
        }
  in
  t.peers <-
    Pid.Map.add from
      {
        m_fd = Intern.pid_set m.m_fd;
        m_part = Intern.pid_set m.m_part;
        m_config = Config_value.intern m.m_config;
        m_prp = Notification.intern prp;
        m_all = m.m_all;
        m_echo = echo;
      }
      t.peers

let estab t ~trusted set =
  if
    no_reco t ~trusted
    && (not (Pid.Set.is_empty set))
    && not (Config_value.equal t.sa_config (Config_value.Set set))
  then begin
    t.sa_prp <- Notification.intern (Notification.make Notification.P1 set);
    t.sa_all <- false;
    t.sa_allseen <- Pid.Set.empty;
    true
  end
  else false

let participate t ~trusted =
  if is_participant t then true
  else if no_reco t ~trusted then begin
    t.sa_config <- Config_value.intern (chs_config t ~trusted);
    is_participant t
  end
  else false

type stale_type = Type1 | Type2 | Type3 | Type4

(* Definition 3.1, as a pure classification of the current local state. *)
let stale_types t ~trusted =
  let part = participants t ~trusted in
  let views = peer_views t ~part in
  let type1 =
    Notification.malformed t.sa_prp
    || List.exists (fun (_, pv) -> Notification.malformed pv.m_prp) views
  in
  let values = visible_configs t ~trusted in
  let type2 =
    exists_reset values
    || List.length (distinct_sets values) > 1
    || List.exists
         (function Config_value.Set s -> Pid.Set.is_empty s | _ -> false)
         values
  in
  let type3 = phase2_conflict t views in
  let type4 = dead_config t ~trusted ~part views in
  List.filter_map
    (fun (present, ty) -> if present then Some ty else None)
    [ (type1, Type1); (type2, Type2); (type3, Type3); (type4, Type4) ]

let peer_fd t p = Option.map (fun pv -> pv.m_fd) (Pid.Map.find_opt p t.peers)

let corrupt t ?config ?prp ?all ?allseen () =
  (match config with Some c -> t.sa_config <- c | None -> ());
  (match prp with Some n -> t.sa_prp <- n | None -> ());
  (match all with Some a -> t.sa_all <- a | None -> ());
  match allseen with Some s -> t.sa_allseen <- s | None -> ()

let clear_peers t = t.peers <- Pid.Map.empty

let pp fmt t =
  Format.fprintf fmt "recSA(p%a) config=%a prp=%a all=%b allSeen=%a" Pid.pp
    t.sa_self Config_value.pp t.sa_config Notification.pp t.sa_prp t.sa_all
    Pid.pp_set t.sa_allseen
