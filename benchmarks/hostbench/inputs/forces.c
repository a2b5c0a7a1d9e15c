/* hostbench translator input: an O(n^2) pair loop with a dynamic schedule
   and a region-level two-variable reduction (the md shape). */
double separation(int nd, double a[], double b[], double d[]);
double potential(double r);
double dpotential(double r);

void forces(int np, int nd, double pos[], double vel[], double mass,
            double f[], double *epot, double *ekin)
{
    int i, j, k;
    double r;
    double d[3];
    double pot, kin;

    pot = 0.0;
    kin = 0.0;
    #pragma omp parallel shared(pos, vel, f) private(i, j, k, r, d) reduction(+: pot, kin)
    {
        #pragma omp for schedule(dynamic, 8)
        for (i = 0; i < np; i++) {
            for (k = 0; k < nd; k++) {
                f[i * nd + k] = 0.0;
            }
            for (j = 0; j < np; j++) {
                if (j != i) {
                    r = separation(nd, pos, pos, d);
                    pot = pot + 0.5 * potential(r);
                    for (k = 0; k < nd; k++) {
                        f[i * nd + k] = f[i * nd + k] - d[k] * dpotential(r) / r;
                    }
                }
            }
            for (k = 0; k < nd; k++) {
                kin = kin + vel[i * nd + k] * vel[i * nd + k];
            }
        }
    }
    *epot = pot;
    *ekin = 0.5 * mass * kin;
}
