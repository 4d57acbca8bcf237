type t = {
  jobs : int option;
  retries : int;
  faults : string option;
  trace : string option;
  report : string option;
  no_analysis_cache : bool;
  no_sim_predecode : bool;
  deadline_ms : int option;
  profile : bool;
}

let default =
  { jobs = None; retries = 2; faults = None; trace = None; report = None;
    no_analysis_cache = false; no_sim_predecode = false; deadline_ms = None;
    profile = false }

let clean = function
  | Some s when String.trim s <> "" -> Some (String.trim s)
  | Some _ | None -> None

let pos_int = function
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None)
  | None -> None

let truthy = function
  | Some s ->
    let s = String.trim s in
    s <> "" && s <> "0"
  | None -> false

let from_env () =
  let get = Sys.getenv_opt in
  {
    jobs = pos_int (get "LP_JOBS");
    retries =
      (match Option.bind (get "LP_RETRIES") int_of_string_opt with
      | Some n when n >= 0 -> n
      | Some _ | None -> default.retries);
    faults = clean (get "LP_FAULTS");
    trace = clean (get "LP_TRACE");
    report = clean (get "LP_REPORT");
    no_analysis_cache = truthy (get "LP_NO_ANALYSIS_CACHE");
    no_sim_predecode = truthy (get "LP_NO_SIM_PREDECODE");
    deadline_ms = pos_int (get "LP_DEADLINE_MS");
    profile = truthy (get "LP_PROFILE");
  }

let resolve ?jobs ?retries ?faults ?trace ?report ?no_analysis_cache
    ?no_sim_predecode ?deadline_ms base =
  {
    jobs = (match jobs with Some _ -> jobs | None -> base.jobs);
    retries = Option.value ~default:base.retries retries;
    faults = (match clean faults with Some _ as f -> f | None -> base.faults);
    trace = (match clean trace with Some _ as t -> t | None -> base.trace);
    report =
      (match clean report with Some _ as r -> r | None -> base.report);
    no_analysis_cache =
      (* a flag can only switch the cache off; absence keeps base *)
      (match no_analysis_cache with
      | Some true -> true
      | Some false | None -> base.no_analysis_cache);
    no_sim_predecode =
      (* same one-way semantics as [no_analysis_cache] *)
      (match no_sim_predecode with
      | Some true -> true
      | Some false | None -> base.no_sim_predecode);
    deadline_ms =
      (match deadline_ms with
      | Some ms when ms >= 1 -> Some ms
      | Some _ | None -> base.deadline_ms);
    profile = base.profile;
  }

let to_string c =
  Printf.sprintf
    "jobs=%s retries=%d faults=%s trace=%s report=%s analysis_cache=%s \
     sim_predecode=%s deadline_ms=%s profile=%s"
    (match c.jobs with Some n -> string_of_int n | None -> "auto")
    c.retries
    (Option.value ~default:"(none)" c.faults)
    (Option.value ~default:"(off)" c.trace)
    (Option.value ~default:"(off)" c.report)
    (if c.no_analysis_cache then "off" else "on")
    (if c.no_sim_predecode then "off" else "on")
    (match c.deadline_ms with Some n -> string_of_int n | None -> "(none)")
    (if c.profile then "on" else "off")
