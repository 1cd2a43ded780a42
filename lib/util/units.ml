let reference_ohms = 50.0
let two_pi = 2.0 *. Float.pi
let db_of_power_ratio r = 10.0 *. Float.log10 r
let power_ratio_of_db db = Float.pow 10.0 (db /. 10.0)
let voltage_ratio_of_db db = Float.pow 10.0 (db /. 20.0)
let dbm_of_watts p = 10.0 *. Float.log10 (p /. 1e-3)
let watts_of_dbm dbm = 1e-3 *. Float.pow 10.0 (dbm /. 10.0)
let dbm_of_vrms ?(ohms = reference_ohms) v = dbm_of_watts (v *. v /. ohms)
let vrms_of_dbm ?(ohms = reference_ohms) dbm = sqrt (watts_of_dbm dbm *. ohms)
let vpeak_of_dbm ?ohms dbm = vrms_of_dbm ?ohms dbm *. sqrt 2.0
let dbm_of_vpeak ?ohms v = dbm_of_vrms ?ohms (v /. sqrt 2.0)
let radians_of_degrees d = d *. Float.pi /. 180.0
