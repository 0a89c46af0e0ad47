let eps0 = 8.854187817e-12
let rho_cu_bulk = 1.68e-8
let rho_al_bulk = 2.65e-8
let k_sio2 = 3.9
