SELECT TOP 5 * FROM iris_data WHERE petal_length > 5.0
SELECT COUNT(*), AVG(kin_0), MIN(kin_1), MAX(label) FROM higgs_data WHERE kin_0 > 0.5 AND label = 1
SELECT TOP 3 kin_0, kin_1 FROM higgs_data WHERE kin_2 < 0 ORDER BY kin_0 DESC
SELECT TOP 5 kin_0, SCORE(higgs_rf) FROM higgs_data WHERE kin_0 > 1 ORDER BY SCORE(higgs_rf) DESC
SELECT COUNT(*), AVG(SCORE(higgs_rf)), MAX(SCORE(higgs_rf)) FROM higgs_data WHERE kin_1 < 0.5 AND SCORE(higgs_rf) > 0.5
SELECT name FROM models
EXEC sp_explain @query = 'SELECT COUNT(*) FROM higgs_data WHERE kin_0 > 0.5 AND SCORE(higgs_rf) > 0.5'
EXEC sp_serve_query @query = 'SELECT TOP 5 SCORE(higgs_rf) FROM higgs_data WHERE kin_0 > 1 ORDER BY SCORE(higgs_rf) DESC'
CREATE TABLE t (name VARCHAR, a FLOAT, b FLOAT, c FLOAT, d FLOAT)
INSERT INTO t VALUES ('setosa', 5.1, 3.5, 1.4, 0.2), ('virginica', 6.3, 3.3, 6.0, 2.5)
SELECT name, SCORE(iris_rf, a, b, c, d) FROM t
SELECT TOP 1 name FROM t ORDER BY SCORE(iris_rf, a, b, c, d) DESC
quit
