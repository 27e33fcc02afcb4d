type disk_kind = Ssd | Hdd

type t = {
  name : string;
  cpu_model : string;
  family : string;
  freq_ghz : float;
  cores : int;
  sockets : int;
  smt : int;
  l1i_bytes : int;
  l1d_bytes : int;
  l2_bytes : int;
  llc_bytes : int;
  l1_assoc : int;
  l2_assoc : int;
  llc_assoc : int;
  lat_l1 : int;
  lat_l2 : int;
  lat_llc : int;
  lat_mem : int;
  issue_width : int;
  rob_size : int;
  mispredict_penalty : int;
  btb_miss_penalty : int;
  predictor_entries : int;
  btb_entries : int;
  ram_gb : int;
  disk : disk_kind;
  net_gbps : float;
}

let kb n = n * 1024
let mb n = n * 1024 * 1024

let a =
  {
    name = "A";
    cpu_model = "Gold 6152";
    family = "Skylake";
    freq_ghz = 2.10;
    cores = 22;
    sockets = 2;
    smt = 2;
    l1i_bytes = kb 32;
    l1d_bytes = kb 32;
    l2_bytes = mb 1;
    llc_bytes = mb 30 + kb 256;
    l1_assoc = 8;
    l2_assoc = 16;
    llc_assoc = 11;
    lat_l1 = 4;
    lat_l2 = 14;
    lat_llc = 44;
    lat_mem = 190;
    issue_width = 4;
    rob_size = 224;
    mispredict_penalty = 16;
    btb_miss_penalty = 8;
    predictor_entries = 16384;
    btb_entries = 4096;
    ram_gb = 192;
    disk = Ssd;
    net_gbps = 10.0;
  }

let b =
  {
    name = "B";
    cpu_model = "E5-2660 v3";
    family = "Haswell";
    freq_ghz = 2.60;
    cores = 10;
    sockets = 2;
    smt = 2;
    l1i_bytes = kb 32;
    l1d_bytes = kb 32;
    l2_bytes = kb 256;
    llc_bytes = mb 25;
    l1_assoc = 8;
    l2_assoc = 8;
    llc_assoc = 20;
    lat_l1 = 4;
    lat_l2 = 12;
    lat_llc = 40;
    lat_mem = 230;
    issue_width = 3;
    rob_size = 192;
    mispredict_penalty = 18;
    btb_miss_penalty = 9;
    predictor_entries = 8192;
    btb_entries = 2048;
    ram_gb = 128;
    disk = Hdd;
    net_gbps = 1.0;
  }

let c =
  {
    name = "C";
    cpu_model = "E3-1240 v5";
    family = "Skylake";
    freq_ghz = 3.50;
    cores = 4;
    sockets = 1;
    smt = 2;
    l1i_bytes = kb 32;
    l1d_bytes = kb 32;
    l2_bytes = kb 256;
    llc_bytes = mb 8;
    l1_assoc = 8;
    l2_assoc = 4;
    llc_assoc = 16;
    lat_l1 = 4;
    lat_l2 = 12;
    lat_llc = 38;
    lat_mem = 280;
    issue_width = 4;
    rob_size = 224;
    mispredict_penalty = 16;
    btb_miss_penalty = 8;
    predictor_entries = 16384;
    btb_entries = 4096;
    ram_gb = 32;
    disk = Hdd;
    net_gbps = 1.0;
  }

let all = [ a; b; c ]

let by_name n =
  match List.find_opt (fun p -> p.name = n) all with Some p -> p | None -> raise Not_found

let with_frequency p freq =
  let ratio = freq /. p.freq_ghz in
  {
    p with
    freq_ghz = freq;
    lat_mem = max 1 (int_of_float (Float.round (float_of_int p.lat_mem *. ratio)));
  }

let disk_to_string = function Ssd -> "SSD" | Hdd -> "HDD"

let table1_rows =
  let row label f = label :: List.map f all in
  [
    row "CPU model" (fun p -> p.cpu_model);
    row "Base Frequency" (fun p -> Printf.sprintf "%.2fGHz" p.freq_ghz);
    row "CPU cores" (fun p -> string_of_int p.cores);
    row "CPU family" (fun p -> p.family);
    row "Sockets" (fun p -> string_of_int p.sockets);
    row "L1i/L1d" (fun p -> Printf.sprintf "%dKB/%dKB" (p.l1i_bytes / 1024) (p.l1d_bytes / 1024));
    row "L2" (fun p ->
        if p.l2_bytes >= 1024 * 1024 then Printf.sprintf "%dMB" (p.l2_bytes / 1024 / 1024)
        else Printf.sprintf "%dKB" (p.l2_bytes / 1024));
    row "LLC" (fun p -> Printf.sprintf "%.2fMB" (float_of_int p.llc_bytes /. 1024. /. 1024.));
    row "RAM" (fun p -> Printf.sprintf "%dGB" p.ram_gb);
    row "Disk" (fun p -> disk_to_string p.disk);
    row "Network" (fun p -> Printf.sprintf "%gGbe" p.net_gbps);
  ]
