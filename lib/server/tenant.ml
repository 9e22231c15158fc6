(* Multi-tenant identity and accounting for charon-serve.

   A tenant is a named principal with an API key, a fair-share weight
   (how much of the pool it deserves under contention) and an
   outstanding-jobs quota (how much of the queue it may occupy at
   once).  The registry is loaded once from a JSON config file and is
   immutable afterwards — authentication is a read-only key lookup, so
   the daemon's accept loop never takes a lock to authenticate.

   Runtime accounting lives in [counters]: one mutable record per
   tenant, owned by the scheduler and only ever touched with the
   scheduler's mutex held (like its job table).  Queue-age samples go
   into a fixed ring so the fairness statistics (p95 age) cost O(ring)
   to compute and O(1) per job to record, no matter how long the
   daemon has been up. *)

module J = Telemetry.Jsonw

type tenant = {
  name : string;
  key : string option;  (* None: the trusted local principal *)
  quota : int;  (* max outstanding (queued + running) jobs; 0 = unlimited *)
  weight : float;  (* fair-share weight, > 0 *)
}

let anonymous = { name = "anonymous"; key = None; quota = 0; weight = 1.0 }

(* A registry is a handful of entries at most, so key lookup is a list
   scan — which keeps the type immutable and safely shared across the
   accept loop and every worker domain without a lock. *)
type t = { tenants : tenant list (* config order, for stable stats *) }

let empty = { tenants = [] }

let configured t = t.tenants <> []

let tenants t = t.tenants

let fail fmt = Printf.ksprintf failwith fmt

let tenant_of_json json =
  let str name =
    match Option.bind (J.member name json) J.to_string_opt with
    | Some s -> s
    | None -> fail "tenant entry: field %S must be a string" name
  in
  let name = str "name" in
  if name = "" then fail "tenant entry: name must be non-empty";
  let key = str "key" in
  if key = "" then fail "tenant %S: key must be non-empty" name;
  let quota =
    match J.member "quota" json with
    | None | Some J.Null -> 0
    | Some v -> (
        match J.to_int_opt v with
        | Some q when q >= 0 -> q
        | Some _ | None ->
            fail "tenant %S: quota must be a non-negative integer" name)
  in
  let weight =
    match J.member "weight" json with
    | None | Some J.Null -> 1.0
    | Some v -> (
        match J.to_float_opt v with
        | Some w when Float.is_finite w && w > 0.0 -> w
        | Some _ | None ->
            fail "tenant %S: weight must be a positive finite number" name)
  in
  { name; key = Some key; quota; weight }

let of_json json =
  let entries =
    match J.member "tenants" json with
    | Some (J.Arr items) -> List.map tenant_of_json items
    | Some _ -> fail "config: \"tenants\" must be an array"
    | None -> fail "config: missing \"tenants\" array"
  in
  let seen_names = Hashtbl.create 8 in
  let seen_keys = Hashtbl.create 8 in
  List.iter
    (fun tn ->
      if Hashtbl.mem seen_names tn.name then
        fail "config: duplicate tenant name %S" tn.name;
      Hashtbl.add seen_names tn.name ();
      match tn.key with
      | Some k ->
          (match Hashtbl.find_opt seen_keys k with
          | Some earlier ->
              fail "config: tenants %S and %S share an API key" earlier tn.name
          | None -> ());
          Hashtbl.add seen_keys k tn.name
      | None -> ())
    entries;
  { tenants = entries }

let load path =
  let text = In_channel.with_open_text path In_channel.input_all in
  match J.parse text with
  | json -> of_json json
  | exception J.Parse_error msg -> fail "config %s: %s" path msg

let find_key t key =
  List.find_opt (fun tn -> tn.key = Some key) t.tenants

(* ------------------------------------------------------------------ *)
(* Runtime accounting (scheduler-owned; every field below is only
   touched with the scheduler's mutex held). *)

let age_ring = 512  (* queue-age samples kept per tenant *)

type counters = {
  tenant : tenant;
  mutable accepted : int;  (* submits answered or queued, incl. hits *)
  mutable cache_hits : int;
  mutable coalesced : int;  (* submits attached to an in-flight run *)
  mutable completed : int;
  mutable cancelled : int;
  mutable failed : int;
  mutable rejected_quota : int;
  mutable rejected_busy : int;
  mutable outstanding : int;  (* queued-or-running jobs right now *)
  ages : float array;  (* ring of queue-age samples, seconds *)
  mutable age_count : int;  (* total ever recorded *)
}
(* The guard is the *scheduler's* mutex (scheduler.ml), which the
   file-local race pass cannot see; the discipline is stated in the
   mli and enforced at every touch point in scheduler.ml. *)
[@@lint.allow "domain-unsafe-global"]

let fresh_counters tenant =
  {
    tenant;
    accepted = 0;
    cache_hits = 0;
    coalesced = 0;
    completed = 0;
    cancelled = 0;
    failed = 0;
    rejected_quota = 0;
    rejected_busy = 0;
    outstanding = 0;
    ages = Array.make age_ring 0.0;
    age_count = 0;
  }

let record_age c age =
  c.ages.(c.age_count mod age_ring) <- age;
  c.age_count <- c.age_count + 1

(* Over the ring's current window; [samples] counts all ever recorded. *)
type age_stats = { samples : int; mean : float; p95 : float; max : float }

let age_stats c =
  let n = min c.age_count age_ring in
  if n = 0 then { samples = 0; mean = 0.0; p95 = 0.0; max = 0.0 }
  else begin
    let window = Array.sub c.ages 0 n in
    Array.sort Float.compare window;
    let sum = Array.fold_left ( +. ) 0.0 window in
    let idx = min (n - 1) (int_of_float (ceil (0.95 *. float_of_int n)) - 1) in
    {
      samples = c.age_count;
      mean = sum /. float_of_int n;
      p95 = window.(max 0 idx);
      max = window.(n - 1);
    }
  end

let counters_json c =
  let a = age_stats c in
  J.Obj
    [
      ("name", J.Str c.tenant.name);
      ("weight", J.Float c.tenant.weight);
      ( "quota",
        if c.tenant.quota = 0 then J.Null else J.Int c.tenant.quota );
      ("accepted", J.Int c.accepted);
      ("cache_hits", J.Int c.cache_hits);
      ("coalesced", J.Int c.coalesced);
      ("completed", J.Int c.completed);
      ("cancelled", J.Int c.cancelled);
      ("failed", J.Int c.failed);
      ("rejected_quota", J.Int c.rejected_quota);
      ("rejected_busy", J.Int c.rejected_busy);
      ("outstanding", J.Int c.outstanding);
      ( "queue_age",
        J.Obj
          [
            ("samples", J.Int a.samples);
            ("mean_seconds", J.Float a.mean);
            ("p95_seconds", J.Float a.p95);
            ("max_seconds", J.Float a.max);
          ] );
    ]
