/* hostbench translator input: a Jacobi-style sweep with a copy loop and a
   reduction loop inside one parallel region (the helmholtz shape). */
void sweep(int n, int m, double h, double alpha, double omega,
           double u[], double f[], double tol, int maxit)
{
    int i, j, it;
    double err, r, a, b;
    double prev[256 * 256];

    a = 1.0 / (h * h);
    b = -4.0 * a - alpha;
    err = 10.0 * tol;
    it = 0;

    while (it < maxit) {
        err = 0.0;
        #pragma omp parallel shared(u, prev, f, err) private(i, j, r)
        {
            #pragma omp for
            for (j = 0; j < m; j++) {
                for (i = 0; i < n; i++) {
                    prev[i + n * j] = u[i + n * j];
                }
            }
            #pragma omp for reduction(+: err)
            for (j = 1; j < m - 1; j++) {
                for (i = 1; i < n - 1; i++) {
                    r = (a * (prev[i - 1 + n * j] + prev[i + 1 + n * j]
                            + prev[i + n * (j - 1)] + prev[i + n * (j + 1)])
                         + b * prev[i + n * j] - f[i + n * j]) / b;
                    u[i + n * j] = prev[i + n * j] - omega * r;
                    err = err + r * r;
                }
            }
        }
        it = it + 1;
    }
}
